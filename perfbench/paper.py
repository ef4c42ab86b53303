"""``paper``: ``repro run-all`` over every experiment, cold then warm.

Users regenerate the figures in a new process, so each repetition is a
fresh spawn child with empty process-wide memo tables.  The child runs
``runner.run_many`` into an empty result cache (cold), then ``warm``
more times against the filled cache.  The cold run splits into the
ensemble simulator (S1) and the analytic model/numerics sweeps; the warm
run is cache reads only.

The checks carry the figure-shape assertions of the per-figure scripts
(``benchmarks/bench_fig1..4_*.py``) and the text-checkpoint battery,
applied to the ``run_many`` outputs.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import layers, procs
from perfbench.report import (
    Outcome,
    add_cold_warm,
    children_outcome,
    cold_warm_payload,
    timing_rows,
)


@dataclass(frozen=True)
class Size:
    ids: Optional[Tuple[str, ...]]  # None: every registered experiment
    fast_config: bool
    warm: int
    min_reps: int


SIZES = {
    "full": Size(ids=None, fast_config=False, warm=25, min_reps=3),
    "tiny": Size(ids=("F2", "T1", "S1"), fast_config=True, warm=2, min_reps=1),
}


def _late(s, kbar):
    return s["capacity"] >= 2.0 * kbar


def _gamma(s, tag):
    values = s[f"gamma_{tag}"]
    return values[~np.isnan(values)]


def _late_slope(s, key, kbar):
    late = _late(s, kbar)
    return np.polyfit(s["capacity"][late], s[key][late], 1)[0]


def _shrinks(values) -> bool:
    return values[-1] < values[0] or values[-1] < 0.1


#: Figure-shape assertions: ``exp_id -> ((description, predicate), ...)``
#: with ``predicate(series, kbar)``.
FIGURE_CHECKS = {
    "F1": (
        ("utility starts at 0", lambda s, k: s["utility"][0] == 0.0),
        ("utility is monotone", lambda s, k: np.all(np.diff(s["utility"]) >= 0.0)),
        ("utility saturates", lambda s, k: s["utility"][-1] > 0.999),
    ),
    "F2": (
        (
            "rigid R >= B",
            lambda s, k: np.all(
                s["reservation_rigid"] >= s["best_effort_rigid"] - 1e-12
            ),
        ),
        (
            "rigid B > 0.999 beyond 2 kbar",
            lambda s, k: np.all(s["best_effort_rigid"][_late(s, k)] > 0.999),
        ),
        (
            "rigid Delta < 1e-6 beyond 2 kbar",
            lambda s, k: np.all(s["bandwidth_gap_rigid"][_late(s, k)] < 1e-6),
        ),
        (
            "adaptive delta < 0.01 beyond kbar",
            lambda s, k: np.all(
                s["performance_gap_adaptive"][s["capacity"] >= k] < 0.01
            ),
        ),
        ("rigid gamma median > 1.05", lambda s, k: np.median(_gamma(s, "rigid")) > 1.05),
        (
            "adaptive gamma median < 1.01",
            lambda s, k: np.median(_gamma(s, "adaptive")) < 1.01,
        ),
    ),
    "F3": (
        (
            "rigid Delta nondecreasing",
            lambda s, k: np.all(np.diff(s["bandwidth_gap_rigid"]) > -1e-6),
        ),
        (
            "rigid Delta grows",
            lambda s, k: s["bandwidth_gap_rigid"][-1] > s["bandwidth_gap_rigid"][0],
        ),
        (
            "rigid delta shrinks beyond 2 kbar",
            lambda s, k: _shrinks(s["performance_gap_rigid"][_late(s, k)]),
        ),
        (
            "adaptive Delta peaks below kbar",
            lambda s, k: s["capacity"][np.argmax(s["bandwidth_gap_adaptive"])] < k,
        ),
        (
            "adaptive Delta falls after its peak",
            lambda s, k: s["bandwidth_gap_adaptive"][-1]
            < np.max(s["bandwidth_gap_adaptive"]),
        ),
        (
            "rigid gamma increasing in p, below 2.2",
            lambda s, k: _gamma(s, "rigid")[0] <= _gamma(s, "rigid")[-1] + 1e-9
            and _gamma(s, "rigid")[0] < 2.2,
        ),
        (
            "adaptive gamma increasing in p, below 2.2",
            lambda s, k: _gamma(s, "adaptive")[0] <= _gamma(s, "adaptive")[-1] + 1e-9
            and _gamma(s, "adaptive")[0] < 2.2,
        ),
    ),
    "F4": (
        (
            "rigid delta > 0.05 beyond 2 kbar",
            lambda s, k: np.all(s["performance_gap_rigid"][_late(s, k)] > 0.05),
        ),
        (
            "rigid Delta slope 1 +- 0.3",
            lambda s, k: abs(_late_slope(s, "bandwidth_gap_rigid", k) - 1.0) <= 0.3,
        ),
        (
            "adaptive Delta slope in (0, rigid/20)",
            lambda s, k: 0.0
            < _late_slope(s, "bandwidth_gap_adaptive", k)
            < _late_slope(s, "bandwidth_gap_rigid", k) / 20.0,
        ),
        ("rigid gamma > 1.8 at the cheapest price", lambda s, k: _gamma(s, "rigid")[0] > 1.8),
        (
            "adaptive gamma in (1.005, 1.1) at the cheapest price",
            lambda s, k: 1.005 < _gamma(s, "adaptive")[0] < 1.1,
        ),
    ),
}

#: Experiments whose result is a list of paper-vs-measured checkpoints.
CHECKPOINT_IDS = ("T1", "T2", "T3", "T4", "T5")


def check_results(results: Dict[str, object], kbar: float) -> List[str]:
    """One failure message per experiment whose output is wrong.

    ``results`` maps experiment id to its decoded result (``None`` when
    the experiment raised).
    """
    failures = []
    for exp_id, result in results.items():
        if result is None:
            failures.append(f"{exp_id}: experiment raised")
            continue
        wrong = []
        for description, predicate in FIGURE_CHECKS.get(exp_id, ()):
            try:
                ok = bool(predicate(result, kbar))
            except (KeyError, IndexError, ValueError, TypeError) as exc:
                ok, description = False, f"{description} ({type(exc).__name__})"
            if not ok:
                wrong.append(description)
        if exp_id in CHECKPOINT_IDS:
            wrong += [row.description for row in result if not row.matches]
        if wrong:
            failures.append(f"{exp_id}: " + "; ".join(wrong))
    return failures


def served(report) -> List[Tuple[str, str, Optional[str]]]:
    """``(id, status, payload_sha256)`` per experiment of a run."""
    return [
        (o.exp_id, o.status, o.entry["payload_sha256"] if o.entry else None)
        for o in report.outcomes
    ]


def check_warm(cold_sha: Dict[str, str], warm: List[tuple], rep: int) -> List[str]:
    """A warm run must serve every experiment from the cache, unchanged."""
    failures = []
    for exp_id, status, sha in warm:
        if status != "cached":
            failures.append(f"{exp_id} warm {rep}: status {status}")
        elif sha != cold_sha.get(exp_id):
            failures.append(f"{exp_id} warm {rep}: payload differs from cold")
    return failures


def child(ready, size: Size, traced: bool, tmp_root: str) -> dict:
    """One fresh process: cold ``run_many``, then ``size.warm`` warm ones."""
    from repro import runner
    from repro.experiments.params import DEFAULT_CONFIG, FAST_CONFIG
    from repro.obs.resources import peak_rss_bytes

    config = FAST_CONFIG if size.fast_config else DEFAULT_CONFIG
    cache_dir = tempfile.mkdtemp(dir=tmp_root)
    layer_tracer = layers.LayerTracer().install() if traced else None
    ready()

    def run_all():
        return runner.run_many(size.ids, config=config, jobs=1, cache_dir=cache_dir)

    (report,), (cold_s,), (cold_ref_s,) = procs.timed(run_all)
    # keep only what the checks need, so the warm reports do not inflate RSS
    warm, warm_s, warm_ref_s = procs.timed(lambda: served(run_all()), size.warm)
    shutil.rmtree(cache_dir)
    failures = check_results({o.exp_id: o.result() for o in report.outcomes}, config.kbar)
    cold_sha = {exp_id: sha for exp_id, _, sha in served(report) if sha}
    for rep, again in enumerate(warm):
        failures += check_warm(cold_sha, again, rep)
    return {
        **cold_warm_payload(cold_s, cold_ref_s, warm_s, warm_ref_s),
        "traced": traced,
        "experiment_s": {o.exp_id: o.seconds for o in report.outcomes},
        "attempted": len(report.outcomes) * (1 + size.warm),
        "failures": failures,
        "rss_mb": peak_rss_bytes() / 2**20,
        "spans": layer_tracer.tracer.roots() if layer_tracer else [],
    }


def _experiment_seconds(traced: List[dict]) -> Dict[str, float]:
    """``RunReport`` seconds per experiment of the cold runs (median)."""
    return {
        f"experiments.{exp_id}_s": statistics.median(
            p["experiment_s"][exp_id] for p in traced
        )
        for exp_id in traced[0]["experiment_s"]
    }


def run(seed: int, seconds: float, trace: bool, tmp, size: str = "full") -> Outcome:
    """``seed`` is unused: the paper's configuration is the input."""
    params = SIZES[size]
    runs = procs.repeat_children(
        child,
        lambda i: (params, trace and i % 2 == 1, str(tmp)),
        seconds=seconds,
        min_reps=max(params.min_reps, 2 if trace else 1),
    )
    title = f"paper: run-all cold then warm, {len(runs)} fresh processes"
    outcome = children_outcome("paper", title, runs, trace, _experiment_seconds)
    if trace:
        return outcome
    cold, warm = add_cold_warm(outcome, runs)
    outcome.rows += [
        *timing_rows("runall_cold_s", cold, "s", "empty cache, fresh process"),
        *timing_rows("runall_warm_ms", [w * 1e3 for w in warm], "ms", "filled cache"),
    ]
    return outcome
