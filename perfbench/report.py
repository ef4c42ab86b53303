"""What a workload run returns, and the table the harness prints for it."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from perfbench import layers, stats


@dataclass(frozen=True)
class Row:
    """One printed table row."""

    name: str
    value: float
    unit: str
    n: int
    note: str = ""


@dataclass
class Outcome:
    """A workload run: metrics for the result line, rows for the table.

    ``attempted`` counts the workload's operations (experiments,
    invariants, requests or replay passes); ``failures`` holds one
    message per failed or wrong operation.
    """

    workload: str
    metrics: Dict[str, float]
    attempted: int
    failures: List[str] = field(default_factory=list)
    rows: List[Row] = field(default_factory=list)
    title: str = ""
    #: ``[(label, span roots), ...]`` per traced process, for the trace file
    trace_groups: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)


def children_outcome(
    workload: str,
    title: str,
    runs: Sequence,
    trace: bool,
    layer_extra: Optional[Callable[[List[dict]], Dict[str, float]]] = None,
) -> Outcome:
    """The outcome of a workload whose repetitions are fresh children.

    Each payload carries ``traced``, ``busy_s`` (wall time of its timed
    operations), ``attempted``, ``failures``, ``rss_mb`` and ``spans``.
    Traced: the per-layer metrics, one traced child per repetition, the
    overhead being the traced children's busy time per operation over
    the untraced ones' minus one, plus ``layer_extra(traced payloads)``.
    Untraced: ``setup_s`` (at reference speed; the wall time is a row)
    and ``peak_rss_mb``, for the caller to complete with its timings.
    """
    payloads = [r.payload for r in runs]
    outcome = Outcome(
        workload,
        {},
        attempted=sum(p["attempted"] for p in payloads),
        failures=[f for p in payloads for f in p["failures"]],
        title=title,
    )
    if not trace:
        outcome.metrics = {
            "setup_s": statistics.median(r.setup_ref_s for r in runs),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in payloads),
        }
        outcome.rows += timing_rows("setup_wall_s", [r.setup_s for r in runs], "s")
        return outcome
    traced = [p for p in payloads if p["traced"]]
    plain = [p for p in payloads if not p["traced"]]

    def per_op(group):
        return sum(p["busy_s"] for p in group) / sum(p["attempted"] for p in group)

    outcome.metrics = layers.per_layer(
        [span for p in traced for span in p["spans"]],
        reps=len(traced),
        busy_seconds=sum(p["busy_s"] for p in traced),
        overhead_frac=per_op(traced) / per_op(plain) - 1.0,
        extra=layer_extra(traced) if layer_extra else None,
    )
    outcome.trace_groups = [
        (f"{workload}.child{i}", p["spans"]) for i, p in enumerate(payloads) if p["traced"]
    ]
    return outcome


def cold_warm_payload(
    cold_s: float, cold_ref_s: float, warm_s: List[float], warm_ref_s: List[float]
) -> dict:
    """Payload timings of one cold operation and the warm ones after it,
    in wall seconds and at reference speed."""
    return {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cold_ref_s": cold_ref_s,
        "warm_ref_s": warm_ref_s,
        "busy_s": cold_s + sum(warm_s),
    }


def add_cold_warm(outcome: Outcome, runs: Sequence) -> tuple:
    """Complete an untraced child outcome whose payloads time one cold
    operation and several warm ones; returns ``(cold, warm)`` wall
    seconds for the detail rows.

    The result line carries lower quartiles of the times at reference
    speed: a child can still run slow for a second or two that its
    probes miss, and with 4-6 cold samples a run the median moves with
    how many children were caught.
    """
    cold = [r.payload["cold_ref_s"] for r in runs]
    warm = [w for r in runs for w in r.payload["warm_ref_s"]]
    outcome.metrics.update(
        cold_ms=stats.lower_quartile(cold) * 1e3,
        warm_ms=stats.lower_quartile(warm) * 1e3,
    )
    return [r.payload["cold_s"] for r in runs], [
        w for r in runs for w in r.payload["warm_s"]
    ]


def timing_rows(
    name: str, values: Sequence[float], unit: str, note: str = ""
) -> List[Row]:
    """Median row plus the highest tail percentile the sample count allows."""
    rows = [Row(f"{name}_p50", stats.median(values), unit, len(values), note)]
    tail = stats.tail(values)
    if tail is not None:
        q, value = tail
        rows.append(Row(f"{name}_p{q:g}", value, unit, len(values), note))
    return rows


def render(outcome: Outcome, units: Optional[Dict[str, str]] = None) -> str:
    """The run as an aligned ``|`` table: result-line metrics, then detail."""
    units = units or {}
    rows = [
        Row(name, value, units.get(name, ""), 0, "result line")
        for name, value in outcome.metrics.items()
        if value != 0.0
    ]
    rows += outcome.rows
    rows.append(
        Row(
            "error_rate",
            outcome.failed / max(outcome.attempted, 1),
            "ratio",
            outcome.attempted,
            "failed / attempted operations",
        )
    )
    header = ("metric", "value", "unit", "n", "note")
    cells = [
        (r.name, f"{r.value:.6g}", r.unit, str(r.n) if r.n else "", r.note)
        for r in rows
    ]
    widths = [max(len(c[i]) for c in cells + [header]) for i in range(len(header))]
    lines = [outcome.title or outcome.workload]
    lines.append(" | ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    lines.append("-|-".join("-" * w for w in widths))
    for cell in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(cell, widths)).rstrip())
    for message in outcome.failures[:10]:
        lines.append(f"FAILED: {message}")
    if outcome.failed > 10:
        lines.append(f"... and {outcome.failed - 10} more failures")
    return "\n".join(lines)
