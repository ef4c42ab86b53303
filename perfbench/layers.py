"""Per-layer attribution: spans around the public calls of each layer.

The harness wraps the layer entry points listed in :data:`TARGETS` with
spans on a :class:`~repro.obs.tracing.Tracer` it owns, runs a workload,
and turns the span forest into per-layer metrics: calls and self time
per repetition (self time = a span's duration minus its child spans',
computed by :func:`repro.obs.traceview.hotspots`).  Nothing in
``repro`` is edited; the wrappers replace, in the traced process only,
class attributes and every module attribute bound to a wrapped
function.

A repetition is one child process for ``paper``, ``verify`` and
``replay`` and one request for ``service``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.obs.tracing import SpanRecord, Tracer
from repro.obs.traceview import chrome_trace, hotspots, validate_chrome_trace

#: ``(layer, module, attribute)``: each public call wrapped in a span
#: named ``<layer>.<attribute>``; a dotted attribute is a class method.
TARGETS = (
    ("models", "repro.models.variable_load", "VariableLoadModel.total_best_effort_batch"),
    ("models", "repro.models.variable_load", "VariableLoadModel.total_reservation_batch"),
    ("models", "repro.models.variable_load", "VariableLoadModel.total_best_effort"),
    ("models", "repro.models.variable_load", "VariableLoadModel.total_reservation"),
    ("models", "repro.models.variable_load", "VariableLoadModel.performance_gap"),
    ("models", "repro.models.variable_load", "VariableLoadModel.bandwidth_gap"),
    ("models", "repro.models.welfare", "WelfareModel.envelope"),
    ("models", "repro.models.welfare", "WelfareModel.equalizing_ratio_batch"),
    ("numerics", "repro.numerics.batch", "find_roots"),
    ("numerics", "repro.numerics.batch", "invert_monotone_batch"),
    ("numerics", "repro.numerics.solvers", "find_root"),
    ("numerics", "repro.numerics.series", "power_series_tail"),
    ("simulation", "repro.simulation.ensemble", "EnsembleSimulator.run"),
    ("simulation", "repro.simulation.ensemble", "EnsembleSimulator.run_until"),
    ("simulation", "repro.simulation.ensemble", "paired_gap"),
    ("meanfield", "repro.meanfield.engine", "MeanFieldSimulator.__init__"),
    ("meanfield", "repro.meanfield.engine", "MeanFieldSimulator.gap_batch"),
    ("emulator", "repro.emulator.surfaces", "ChebyshevSurface.eval_scalar"),
    ("emulator", "repro.emulator.surfaces", "ChebyshevSurface.evaluate"),
    ("emulator", "repro.emulator.bank", "fit_bank"),
    ("emulator", "repro.emulator.bank", "exact_values"),
    ("service", "repro.service.core", "EmulatorService.point"),
    ("service", "repro.service.core", "EmulatorService.batch"),
    ("runner", "repro.runner.cache", "ResultCache.load"),
    ("runner", "repro.runner.cache", "ResultCache.store"),
    ("traces", "repro.traces.replay", "sweep_occupancy"),
    ("traces", "repro.traces.replay", "TraceOccupancy.evaluate"),
)

#: Spans the workloads open themselves around each chunk a trace
#: stream yields (generation off a workload, parsing off a CSV file).
GENERATE_CHUNK = "traces.generate_chunk"
PARSE_CHUNK = "traces.parse_chunk"

SPAN_NAMES = tuple(f"{layer}.{attr}" for layer, _, attr in TARGETS) + (
    GENERATE_CHUNK,
    PARSE_CHUNK,
)

#: Labels recorded from a wrapped call's result, by span name.
_OBSERVE: Dict[str, Callable[[object], Dict[str, object]]] = {
    "runner.ResultCache.load": lambda entry: {"hit": entry is not None},
    "simulation.EnsembleSimulator.run": lambda result: {
        "events": int(result.events.sum())
    },
    "traces.sweep_occupancy": lambda occ: {"max_pending": int(occ.max_pending)},
    "service.EmulatorService.point": lambda answer: {"source": answer["source"]},
}

#: Experiment ids ``repro run-all`` runs, for ``experiments.<id>_s``.
EXPERIMENT_IDS = (
    "F1", "F2", "F3", "F4", "T1", "T2", "T3", "T4", "T5",
    "C1", "S5.1", "S5.2", "S1", "TR1", "TR2", "TR3",
)

#: The engines a verify invariant can name, for ``verify.engine.<e>_s``.
VERIFY_ENGINES = ("scalar", "batch", "ensemble", "continuum", "meanfield")

#: The five slowest fast-suite invariants at the time the harness was
#: written, for ``verify.invariant.<id>_s``.
VERIFY_TOP = ("S3", "T3", "L3", "EM1", "K1")


def _catalogue() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count/rep"
        units[f"{name}.self_ms"] = "ms/rep"
    units.update(
        {
            "simulation.events_per_s": "1/s",
            "service.point_surface_p50_us": "us",
            "service.http_overhead_us": "us",
            "runner.cache.hit_ratio": "ratio",
            "traces.max_pending": "count",
        }
    )
    units.update({f"experiments.{exp_id}_s": "s" for exp_id in EXPERIMENT_IDS})
    units.update({f"verify.engine.{e}_s": "s" for e in VERIFY_ENGINES})
    units.update({f"verify.invariant.{i}_s": "s" for i in VERIFY_TOP})
    units.update({"obs.trace_overhead_frac": "ratio", "obs.coverage": "ratio"})
    return units


#: Every per-layer metric a traced run emits, with its unit.  A layer
#: the workload skips reads 0.
PER_LAYER: Dict[str, str] = _catalogue()


class LayerTracer:
    """Install spans around :data:`TARGETS` on a harness-owned tracer."""

    def __init__(self):
        self.tracer = Tracer()

    def install(self) -> "LayerTracer":
        for layer, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            name = f"{layer}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self._wrap(name, cls.__dict__[method]))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            # callers that did ``from module import func`` hold their own
            # binding: rebind it in every loaded repro module
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapper)
        return self

    def _wrap(self, name: str, func):
        span = self.tracer.span
        observe = _OBSERVE.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with span(name) as live:
                result = func(*args, **kwargs)
                if observe is not None:
                    live.annotate(**observe(result))
            return result

        return wrapper

    def timed_stream(self, stream, name: str):
        """``stream`` with each chunk's production wrapped in span ``name``."""
        from repro.traces import TraceStream

        span = self.tracer.span

        def chunks():
            source = iter(stream)
            while True:
                with span(name):
                    chunk = next(source, None)
                if chunk is None:
                    return
                yield chunk

        return TraceStream(
            chunks(), horizon=stream.horizon, metadata=stream.metadata
        )


def walk(roots: Iterable[SpanRecord]):
    """Every span of a forest, parents before children."""
    stack = list(roots)
    while stack:
        span = stack.pop()
        yield span
        stack.extend(span.children)


def per_layer(
    roots: Sequence[SpanRecord],
    *,
    reps: int,
    busy_seconds: float,
    overhead_frac: float,
    extra: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from a traced span forest.

    ``reps`` normalises calls and self time; ``busy_seconds`` is the
    wall time of the traced operations (the coverage denominator).
    """
    out = {name: 0.0 for name in PER_LAYER}
    report = hotspots(roots, wall_seconds=busy_seconds)
    for row in report["hotspots"]:
        if row["name"] in SPAN_NAMES:
            out[f"{row['name']}.calls"] = row["count"] / reps
            out[f"{row['name']}.self_ms"] = row["self_seconds"] * 1e3 / reps
    events = run_seconds = 0.0
    hits = loads = 0
    for span in walk(roots):
        if "events" in span.labels:
            events += span.labels["events"]
            run_seconds += span.duration
        if "hit" in span.labels:
            loads += 1
            hits += bool(span.labels["hit"])
        if "max_pending" in span.labels:
            out["traces.max_pending"] = max(
                out["traces.max_pending"], float(span.labels["max_pending"])
            )
    if run_seconds > 0.0:
        out["simulation.events_per_s"] = events / run_seconds
    if loads:
        out["runner.cache.hit_ratio"] = hits / loads
    out["obs.coverage"] = float(report.get("coverage", 0.0))
    out["obs.trace_overhead_frac"] = overhead_frac
    out.update(extra or {})
    unknown = set(out) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"per-layer metrics not in the catalogue: {sorted(unknown)}")
    return out


def write_chrome_trace(
    path, groups: Sequence[tuple], *, run_id: str
) -> List[str]:
    """Write one track per process; returns the trace's schema violations.

    ``groups`` is ``[(label, roots), ...]``: each process's roots are
    placed under one synthetic span named ``label`` so the trace keeps
    their real offsets (``perf_counter`` is system-wide on Linux).
    """
    forest = []
    for label, roots in groups:
        if not roots:
            continue
        top = SpanRecord(label)
        top.start = min(root.start for root in roots)
        top.end = max(root.end for root in roots)
        top.children = sorted(roots, key=lambda root: root.start)
        forest.append(top)
    trace = chrome_trace(forest, run_id=run_id)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    return validate_chrome_trace(trace)
