"""``replay``: an operator replaying flow traces through ``repro.traces``.

Each of ``children`` fresh spawn children streams the ``poisson``,
``diurnal`` and ``bursty`` workloads straight off the generator (about
1.1M flows each at full size), folds each with ``sweep_occupancy`` and
evaluates the paired verdict at 8 capacities around the mean rate; then
replays a seeded bursty CSV file (about 0.36M flows) through
``open_trace`` the same way.  After one untimed warm-up pass a child
alternates timed generator and CSV passes until its share of the run is
used.  Generator input is bound by the sweep, CSV input by the parser;
no other workload touches the traces layer this hard.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from perfbench import layers, procs, stats
from perfbench.report import Outcome, Row, children_outcome, timing_rows

SHAPES = ("poisson", "diurnal", "bursty")
CSV_SHAPE = "bursty"
WINDOWS = 16

#: Pending departures may track the census, never the flow count.
PENDING_PER_RATE = 8.0

#: The reservation threshold binds (so the gap CI is positive) only
#: where capacity sits inside the census' ~2% fluctuation band.
BINDING_FACTOR = 1.01


@dataclass(frozen=True)
class Size:
    rate: float
    horizon: float
    csv_horizon: float
    capacities: int
    children: int

    def capacity_grid(self) -> np.ndarray:
        return self.rate * np.linspace(0.95, 1.1, self.capacities)


SIZES = {
    "full": Size(rate=2200.0, horizon=500.0, csv_horizon=150.0, capacities=8, children=3),
    "tiny": Size(rate=200.0, horizon=60.0, csv_horizon=30.0, capacities=3, children=1),
}


def occupancy_digest(occ) -> str:
    """Bytes of the window edges and occupancy histogram, hashed."""
    digest = hashlib.sha256(np.asarray(occ.edges).tobytes())
    digest.update(np.ascontiguousarray(occ.occupancy).tobytes())
    return digest.hexdigest()


def check_replay(label: str, occ, results, expected_flows: int, rate: float) -> List[str]:
    """At most one failure message for one replay pass."""
    wrong = []
    if occ.flows != expected_flows:
        wrong.append(f"{occ.flows} flows, expected {expected_flows}")
    if occ.max_pending > PENDING_PER_RATE * rate:
        wrong.append(f"max_pending {occ.max_pending} > {PENDING_PER_RATE:g} x rate")
    for result in results:
        if result.capacity <= BINDING_FACTOR * rate and not result.paired.gap_ci > 0.0:
            wrong.append(f"gap_ci not positive at C={result.capacity:g}")
    return [f"{label}: " + "; ".join(wrong)] if wrong else []


def child(
    ready,
    size: Size,
    traced: bool,
    seed: int,
    csv_path: str,
    expected: Dict[str, int],
    budget_s: float,
) -> dict:
    """One fresh process: warm-up, then generator and CSV passes for ``budget_s``."""
    from repro import traces
    from repro.obs.resources import peak_rss_bytes
    from repro.utility import AdaptiveUtility

    utility = AdaptiveUtility()
    capacities = size.capacity_grid()
    layer_tracer = None
    ready()
    start = time.perf_counter()

    def replay(stream, span_name):
        if layer_tracer is not None:
            stream = layer_tracer.timed_stream(stream, span_name)
        # through the module, so installed spans see the call
        occ = traces.sweep_occupancy(stream, windows=WINDOWS, warmup=0.1 * stream.horizon)
        return occ, [occ.evaluate(utility, c) for c in capacities]

    def generated(shape, horizon=size.horizon):
        workload = traces.default_workload(shape, size.rate)
        return replay(workload.stream(horizon, seed=seed), layers.GENERATE_CHUNK)

    # untimed, untraced warm-up; its digests are what later passes must repeat
    digests = {shape: occupancy_digest(generated(shape)[0]) for shape in SHAPES}
    digests["csv"] = occupancy_digest(generated(CSV_SHAPE, size.csv_horizon)[0])
    if traced:
        layer_tracer = layers.LayerTracer().install()

    failures, gen_s, csv_s, gen_ref_s, csv_ref_s = [], [], [], [], []

    def pair_fits() -> bool:
        """Another generator + CSV pair fits the budget."""
        mean_pair = (sum(gen_s) + sum(csv_s)) / len(gen_s)
        return time.perf_counter() - start + mean_pair <= budget_s

    while not gen_s or pair_fits():
        rep = len(gen_s)
        (gen,), (seconds,), (ref_s,) = procs.timed(
            lambda: {shape: generated(shape) for shape in SHAPES}
        )
        gen_s.append(seconds)
        gen_ref_s.append(ref_s)
        (csv,), (seconds,), (ref_s,) = procs.timed(
            lambda: replay(traces.open_trace(csv_path), layers.PARSE_CHUNK)
        )
        csv_s.append(seconds)
        csv_ref_s.append(ref_s)
        for name, (occ, results) in {**gen, "csv": csv}.items():
            label = f"{name} pass {rep}"
            failures += check_replay(label, occ, results, expected[name], size.rate)
            if occupancy_digest(occ) != digests[name]:
                failures.append(f"{label}: occupancy differs from the warm-up's")
    return {
        "traced": traced,
        "gen_s": gen_s,
        "csv_s": csv_s,
        "gen_ref_s": gen_ref_s,
        "csv_ref_s": csv_ref_s,
        "busy_s": sum(gen_s) + sum(csv_s),
        "attempted": len(gen_s) * (len(SHAPES) + 1),
        "failures": failures,
        "rss_mb": peak_rss_bytes() / 2**20,
        "spans": layer_tracer.tracer.roots() if layer_tracer else [],
    }


def prepare(size: Size, seed: int, csv_path) -> Dict[str, int]:
    """Write the seeded CSV input; return each input's exact flow count."""
    from repro.traces import default_workload, write_trace_csv

    def stream(shape, horizon):
        return default_workload(shape, size.rate).stream(horizon, seed=seed)

    counts = {
        shape: sum(len(chunk.arrival) for chunk in stream(shape, size.horizon))
        for shape in SHAPES
    }
    counts["csv"] = sum(len(c.arrival) for c in stream(CSV_SHAPE, size.csv_horizon))
    write_trace_csv(stream(CSV_SHAPE, size.csv_horizon), csv_path)
    return counts


def run(seed: int, seconds: float, trace: bool, tmp, size: str = "full") -> Outcome:
    params = SIZES[size]
    csv_path = tmp / "replay.csv"
    expected = prepare(params, seed, csv_path)
    children = max(params.children, 2 if trace else 1)
    deadline = time.perf_counter() + seconds
    runs, setup_s = [], 1.0
    for i in range(children):
        # split what is left evenly; a child's set-up is not its budget
        budget = (deadline - time.perf_counter()) / (children - i) - setup_s
        args = (params, trace and i % 2 == 1, seed, str(csv_path), expected, budget)
        runs.append(procs.run_child(child, *args))
        setup_s = runs[-1].setup_s
    csv_path.unlink()
    title = (
        f"replay: {'/'.join(SHAPES)} at rate {params.rate:g} to "
        f"t={params.horizon:g}, and CSV, {len(runs)} fresh processes"
    )
    outcome = children_outcome("replay", title, runs, trace)
    if trace:
        return outcome

    def samples(key):
        return [s for r in runs for s in r.payload[key]]

    gen, csv = samples("gen_s"), samples("csv_s")
    gen_flows = sum(expected[shape] for shape in SHAPES)
    outcome.metrics.update(
        # per million flows: the bursty flow count varies with the seed;
        # lower quartiles at reference speed, as for the other child workloads
        cold_ms=stats.lower_quartile(samples("csv_ref_s")) * 1e9 / expected["csv"],
        warm_ms=stats.lower_quartile(samples("gen_ref_s")) * 1e9 / gen_flows,
    )
    outcome.rows += [
        *timing_rows("csv_pass_ms", [s * 1e3 for s in csv], "ms", "open_trace of the CSV"),
        *timing_rows("gen_pass_ms", [s * 1e3 for s in gen], "ms", "three shapes"),
        Row("gen_flows_per_s", gen_flows / statistics.median(gen), "1/s", len(gen)),
        Row("csv_flows_per_s", expected["csv"] / statistics.median(csv), "1/s", len(csv)),
    ]
    return outcome
