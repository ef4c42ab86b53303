"""Trace export and hotspot attribution for recorded span trees.

Two consumers of the same :class:`~repro.obs.tracing.SpanRecord`
forest:

* :func:`chrome_trace` converts it to Chrome trace-event JSON
  (``"X"`` complete events, microsecond timestamps) loadable in
  Perfetto (https://ui.perfetto.dev) or ``chrome://tracing`` — the
  visual answer to "where did the sweep spend its time".
* :func:`hotspots` aggregates the forest per span *name* into
  cumulative time, self time (cumulative minus child time), call
  counts and p50/p99 durations — the numeric answer, sortable and
  diffable across runs.

Span trees arrive either live (real ``perf_counter`` anchors) or
rehydrated from worker JSON via :meth:`SpanRecord.from_dict`, where
every start is pinned to 0.  The exporter handles both: children with
real in-parent timestamps keep them; pinned children are laid out
sequentially inside their parent so the trace stays readable (and the
durations — the part that matters — stay exact).
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Sequence

from repro.obs.tracing import SpanRecord

#: Schema tag recorded in the exported trace's ``otherData``.
TRACE_SCHEMA = "repro.obs/chrome-trace/v1"


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return float("nan")
    idx = min(
        len(sorted_values) - 1,
        int(round(q / 100.0 * (len(sorted_values) - 1))),
    )
    return sorted_values[idx]


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------


def _emit_span(
    span: SpanRecord,
    ts_us: float,
    parent_has_clock: bool,
    parent_start: float,
    tid: int,
    out: List[Dict[str, object]],
) -> None:
    dur_us = span.duration * 1e6
    event: Dict[str, object] = {
        "name": span.name,
        "ph": "X",
        "ts": ts_us,
        "dur": dur_us,
        "pid": int(span.labels.get("worker", 0) or 0),
        "tid": tid,
        "cat": span.name.split(".", 1)[0],
    }
    if span.labels:
        event["args"] = {k: _jsonable(v) for k, v in span.labels.items()}
    out.append(event)
    # children with live clocks are placed at their true offset inside
    # the parent; rehydrated (pinned) children pack sequentially
    has_clock = parent_has_clock and span.start > 0.0
    cursor = ts_us
    for child in span.children:
        if has_clock and child.start >= span.start > 0.0:
            child_ts = ts_us + (child.start - span.start) * 1e6
        else:
            child_ts = cursor
        _emit_span(child, child_ts, has_clock, span.start, tid, out)
        cursor = child_ts + child.duration * 1e6


def chrome_trace(
    roots: Sequence[SpanRecord], *, run_id: Optional[str] = None
) -> Dict[str, object]:
    """The span forest as a Chrome trace-event JSON object.

    Each root becomes its own track (``tid``) starting at ``ts = 0``,
    so concurrent roots (threads, workers) render side by side; within
    a root, nesting reproduces the recorded tree.
    """
    events: List[Dict[str, object]] = []
    for tid, root in enumerate(roots):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": int(root.labels.get("worker", 0) or 0),
                "tid": tid,
                "args": {"name": f"root:{root.name}"},
            }
        )
        _emit_span(root, 0.0, True, root.start, tid, events)
    other: Dict[str, object] = {"schema": TRACE_SCHEMA}
    if run_id:
        other["run"] = run_id
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def validate_chrome_trace(trace: object) -> List[str]:
    """Schema-check a trace object; returns a list of violations.

    Covers the subset of the trace-event format the exporter produces
    (and Perfetto requires): a ``traceEvents`` array whose entries are
    ``"X"`` complete events with numeric non-negative ``ts``/``dur``
    and integer ``pid``/``tid``, or ``"M"`` metadata events.
    """
    errors: List[str] = []
    if not isinstance(trace, dict):
        return [f"trace must be a JSON object, got {type(trace).__name__}"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be an array"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "M"):
            errors.append(f"{where}: unsupported phase {ph!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            errors.append(f"{where}: missing/empty name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                errors.append(f"{where}: {key} must be an integer")
        if ph == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if (
                    not isinstance(value, (int, float))
                    or isinstance(value, bool)
                    or not math.isfinite(value)
                    or value < 0.0
                ):
                    errors.append(
                        f"{where}: {key} must be a finite number >= 0"
                    )
        args = event.get("args")
        if args is not None and not isinstance(args, dict):
            errors.append(f"{where}: args must be an object")
    return errors


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


# ----------------------------------------------------------------------
# hotspot aggregation
# ----------------------------------------------------------------------


class Hotspot:
    """Aggregated statistics for every span sharing one name."""

    __slots__ = ("name", "count", "cumulative", "self_time", "_durations")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.cumulative = 0.0
        self.self_time = 0.0
        self._durations: List[float] = []

    def to_dict(self) -> Dict[str, object]:
        durations = sorted(self._durations)
        return {
            "name": self.name,
            "count": self.count,
            "cumulative_seconds": self.cumulative,
            "self_seconds": self.self_time,
            "mean_seconds": self.cumulative / self.count if self.count else 0.0,
            "p50_seconds": _percentile(durations, 50.0),
            "p99_seconds": _percentile(durations, 99.0),
        }


def hotspots(
    roots: Sequence[SpanRecord], *, wall_seconds: Optional[float] = None
) -> Dict[str, object]:
    """Aggregate a span forest into a per-name hotspot table.

    Self time is a span's duration minus its children's (clamped at
    zero against clock skew), so the ``self_seconds`` column sums to
    the total traced time and directly names the code actually burning
    it.  With ``wall_seconds`` the table also reports *coverage* — the
    fraction of wall time attributed to any named span — which is the
    honesty metric for the instrumentation itself: low coverage means
    the hot path is running between spans, not inside them.
    """
    table: Dict[str, Hotspot] = {}

    def visit(span: SpanRecord) -> None:
        spot = table.get(span.name)
        if spot is None:
            spot = table[span.name] = Hotspot(span.name)
        duration = span.duration
        child_total = sum(c.duration for c in span.children)
        spot.count += 1
        spot.cumulative += duration
        spot.self_time += max(0.0, duration - child_total)
        spot._durations.append(duration)
        for child in span.children:
            visit(child)

    for root in roots:
        visit(root)

    rows = [
        spot.to_dict()
        for spot in sorted(
            table.values(), key=lambda s: s.self_time, reverse=True
        )
    ]
    traced = sum(root.duration for root in roots)
    out: Dict[str, object] = {
        "schema": "repro.obs/hotspots/v1",
        "spans": sum(row["count"] for row in rows),
        "traced_seconds": traced,
        "hotspots": rows,
    }
    if wall_seconds is not None and wall_seconds > 0.0:
        out["wall_seconds"] = wall_seconds
        out["coverage"] = min(1.0, traced / wall_seconds)
    return out


def render_hotspots(report: Dict[str, object], *, top: int = 0) -> str:
    """The hotspot table as aligned text, hottest self-time first."""
    rows = report["hotspots"]
    if top:
        rows = rows[:top]
    if not rows:
        return "(no spans recorded)"
    name_width = max(len("span"), *(len(str(r["name"])) for r in rows))
    lines = [
        f"{'span':<{name_width}}  {'count':>6}  {'self s':>10}  "
        f"{'cum s':>10}  {'mean s':>10}  {'p50 s':>10}  {'p99 s':>10}"
    ]
    for row in rows:
        lines.append(
            f"{row['name']:<{name_width}}  {row['count']:>6}  "
            f"{row['self_seconds']:>10.4f}  {row['cumulative_seconds']:>10.4f}  "
            f"{row['mean_seconds']:>10.4f}  {row['p50_seconds']:>10.4f}  "
            f"{row['p99_seconds']:>10.4f}"
        )
    lines.append(
        f"-- {report['spans']} spans, {report['traced_seconds']:.4f} s traced"
        + (
            f"; coverage {report['coverage'] * 100:.1f}% of "
            f"{report['wall_seconds']:.4f} s wall"
            if "coverage" in report
            else ""
        )
    )
    return "\n".join(lines)


def spans_from_trace_json(payload: object) -> List[SpanRecord]:
    """Rebuild a span forest from a ``--trace-json`` dump (list form)."""
    if not isinstance(payload, list):
        raise ValueError(
            "expected a JSON array of span trees (the --trace-json format)"
        )
    return [SpanRecord.from_dict(item) for item in payload]


def load_trace_file(path) -> List[SpanRecord]:
    """Read a ``--trace-json`` file into a span forest."""
    with open(path, "r", encoding="utf-8") as fh:
        return spans_from_trace_json(json.load(fh))
