"""Benchmark — the ensemble engine vs sequential scalar runs.

The claim: R replications of the flow simulator, run as census walks
in ``repro.simulation.ensemble``, reach >= 8x the aggregate event
throughput of R sequential ``FlowSimulator.run`` calls, without
changing a single event.  This benchmark

* times both paths on the headline configuration (R = 64 Poisson
  replications, census mean 50, capacity 55) and asserts the speedup,
* asserts exact parity — every ensemble replication's trajectory is
  event-for-event identical to the scalar engine replaying the same
  seed child's stream,
* estimates the paper's gap ``delta(C) = R(C) - B(C)`` with
  CRN-paired best-effort/reservation ensembles and asserts the
  analytic gap lies within the reported confidence interval (plus a
  tiny tolerance for the finite-horizon bias floor), and
* demonstrates precision-targeted stopping: ``run_until`` grows a
  fresh ensemble until the ``B(C)`` estimate reaches a requested CI
  half-width, and the result must bracket the analytic value.

Results land in ``BENCH_ensemble.json`` at the repository root
(committed, so reviewers can diff the speedup across machines) and
``benchmarks/results/ensemble_speedup.txt``.

Run standalone (``python benchmarks/bench_ensemble.py``) or via the
harness (``pytest benchmarks/bench_ensemble.py``).
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Dict

import numpy as np

from repro.loads import PoissonLoad
from repro.models import VariableLoadModel
from repro.simulation import (
    AdmitAll,
    BirthDeathProcess,
    EnsembleSimulator,
    FlowSimulator,
    Link,
    PoissonProcess,
    ReplicationStream,
    paired_gap,
    spawn_children,
)
from repro.utility import AdaptiveUtility

#: The acceptance target: ensemble aggregate events/sec over R
#: sequential scalar runs (single process, identical streams).
TARGET_SPEEDUP = 8.0

#: Headline throughput configuration.
REPLICATIONS = 64
HORIZON = 200.0
SPEED_SEED = 404

#: Statistical validation configuration (the S1 setting).
KBAR = 50.0
CAPACITY = 55.0
GAP_REPLICATIONS = 32
GAP_HORIZON = 400.0
GAP_WARMUP = 50.0
GAP_SEED = 2025

#: Slack added to CI half-widths when comparing against analytic
#: values: absorbs the residual finite-horizon bias of the level
#: estimates (empirically ~2e-3 at horizon 400) without letting a
#: genuinely wrong estimator through.
BIAS_FLOOR = 5e-3
#: The CRN-paired gap cancels the shared census-level bias, so its
#: floor only covers run-to-run numerical slack.
GAP_BIAS_FLOOR = 2e-4

ROOT = pathlib.Path(__file__).resolve().parent.parent
JSON_PATH = ROOT / "BENCH_ensemble.json"
HISTORY_PATH = ROOT / "benchmarks" / "results" / "history.jsonl"


def _speedup_case() -> Dict:
    """Time R sequential scalar runs vs one vectorized ensemble.

    Both paths consume the identical per-replication streams (the same
    ``SeedSequence`` children), so the event counts must agree and the
    comparison is work-for-work.
    """
    process = PoissonProcess(KBAR)
    link = Link(CAPACITY)

    # warm both paths so first-call costs don't land in the timings
    EnsembleSimulator(process, link, AdmitAll()).run(2, 10.0, seed=1)
    FlowSimulator(process, link, AdmitAll()).run(
        10.0, stream=ReplicationStream(spawn_children(1, 1)[0])
    )

    children = spawn_children(SPEED_SEED, REPLICATIONS)
    scalar_sim = FlowSimulator(process, link, AdmitAll())
    t0 = time.perf_counter()
    scalar_results = [
        scalar_sim.run(HORIZON, stream=ReplicationStream(child))
        for child in children
    ]
    t_scalar = time.perf_counter() - t0
    scalar_events = int(sum(r.events for r in scalar_results))

    ensemble = EnsembleSimulator(process, link, AdmitAll())
    t0 = time.perf_counter()
    result = ensemble.run(REPLICATIONS, HORIZON, seed=SPEED_SEED)
    t_ensemble = time.perf_counter() - t0
    ensemble_events = int(result.events.sum())

    parity = scalar_events == ensemble_events
    for r, scalar in enumerate(scalar_results):
        tr = result.trajectory(r)
        parity = parity and (
            np.array_equal(scalar.trajectory.times, tr.times)
            and np.array_equal(scalar.trajectory.census, tr.census)
            and np.array_equal(scalar.trajectory.admitted, tr.admitted)
        )
    return {
        "case": f"R={REPLICATIONS} Poisson(kbar={KBAR:.0f}) to t={HORIZON:.0f}",
        "replications": REPLICATIONS,
        "events": ensemble_events,
        "scalar_s": round(t_scalar, 3),
        "ensemble_s": round(t_ensemble, 3),
        "scalar_events_per_s": round(scalar_events / t_scalar),
        "ensemble_events_per_s": round(ensemble_events / t_ensemble),
        "speedup": round(t_scalar / t_ensemble, 2),
        "exact_parity": bool(parity),
    }


def _gap_case() -> Dict:
    """CRN-paired gap estimate vs the analytic ``delta(C)``."""
    load = PoissonLoad(KBAR)
    utility = AdaptiveUtility()
    model = VariableLoadModel(load, utility)
    gap = paired_gap(
        BirthDeathProcess(load),
        Link(CAPACITY),
        utility,
        GAP_REPLICATIONS,
        GAP_HORIZON,
        warmup=GAP_WARMUP,
        seed=GAP_SEED,
    )
    summary = gap.summary()
    analytic_be = float(model.best_effort(CAPACITY))
    analytic_res = float(model.reservation(CAPACITY))
    return {
        "case": (
            f"CRN paired gap, R={GAP_REPLICATIONS}, "
            f"t={GAP_HORIZON:.0f}, warmup={GAP_WARMUP:.0f}"
        ),
        "analytic_be": analytic_be,
        "analytic_res": analytic_res,
        "analytic_gap": analytic_res - analytic_be,
        "sim_be": summary["best_effort"],
        "sim_be_ci": summary["best_effort_ci"],
        "sim_res": summary["reservation"],
        "sim_res_ci": summary["reservation_ci"],
        "sim_gap": summary["gap"],
        "sim_gap_ci": summary["gap_ci"],
    }


def _adaptive_case() -> Dict:
    """Precision-targeted stopping on the best-effort estimate."""
    load = PoissonLoad(KBAR)
    utility = AdaptiveUtility()
    analytic_be = float(VariableLoadModel(load, utility).best_effort(CAPACITY))
    target = 5e-3
    estimate = EnsembleSimulator(
        BirthDeathProcess(load), Link(CAPACITY), AdmitAll()
    ).run_until(
        lambda result: result.utility_estimates(utility)[0],
        GAP_HORIZON,
        ci_halfwidth=target,
        warmup=GAP_WARMUP,
        seed=GAP_SEED + 1,
        min_replications=4,
        max_replications=256,
    )
    return {
        "case": f"run_until B(C) to ci<={target:g}",
        "target_ci": target,
        "analytic_be": analytic_be,
        "mean": estimate.mean,
        "ci_halfwidth": estimate.ci_halfwidth,
        "replications": estimate.replications,
        "converged": bool(estimate.converged),
    }


def measure() -> Dict:
    """Run the speedup, CRN-gap and adaptive-stopping cases."""
    speed = _speedup_case()
    gap = _gap_case()
    adaptive = _adaptive_case()
    return {
        "generated_by": "benchmarks/bench_ensemble.py",
        "config": {
            "kbar": KBAR,
            "capacity": CAPACITY,
            "target_speedup": TARGET_SPEEDUP,
            "bias_floor": BIAS_FLOOR,
            "gap_bias_floor": GAP_BIAS_FLOOR,
        },
        "headline": speed,
        "cases": [speed, gap, adaptive],
        "gap": gap,
        "adaptive": adaptive,
    }


def render(stats: Dict) -> str:
    h = stats["headline"]
    g = stats["gap"]
    a = stats["adaptive"]
    return "\n".join(
        [
            f"{h['case']}: {h['events']} events",
            (
                f"  scalar {h['scalar_s']:.2f}s "
                f"({h['scalar_events_per_s'] / 1e3:.0f}k ev/s)  "
                f"ensemble {h['ensemble_s']:.2f}s "
                f"({h['ensemble_events_per_s'] / 1e6:.2f}M ev/s)  "
                f"speedup {h['speedup']:.1f}x (target >= "
                f"{TARGET_SPEEDUP:.0f}x)  parity={h['exact_parity']}"
            ),
            f"{g['case']}:",
            (
                f"  B(C): sim {g['sim_be']:.5f} +/- {g['sim_be_ci']:.5f}  "
                f"analytic {g['analytic_be']:.5f}"
            ),
            (
                f"  R(C): sim {g['sim_res']:.5f} +/- {g['sim_res_ci']:.5f}  "
                f"analytic {g['analytic_res']:.5f}"
            ),
            (
                f"  gap:  sim {g['sim_gap']:.6f} +/- {g['sim_gap_ci']:.6f}  "
                f"analytic {g['analytic_gap']:.6f}"
            ),
            (
                f"{a['case']}: mean {a['mean']:.5f} +/- "
                f"{a['ci_halfwidth']:.5f} after {a['replications']} "
                f"replications (converged={a['converged']}, "
                f"analytic {a['analytic_be']:.5f})"
            ),
        ]
    )


def check(stats: Dict) -> None:
    """Assert the acceptance criteria from the issue."""
    h = stats["headline"]
    assert h["exact_parity"], (
        "ensemble trajectories diverged from scalar runs on shared streams"
    )
    assert h["speedup"] >= TARGET_SPEEDUP, (
        f"ensemble speedup {h['speedup']:.1f}x below the "
        f"{TARGET_SPEEDUP:.0f}x target"
    )
    g = stats["gap"]
    assert abs(g["sim_be"] - g["analytic_be"]) <= g["sim_be_ci"] + BIAS_FLOOR, (
        f"B(C) estimate {g['sim_be']:.5f} +/- {g['sim_be_ci']:.5f} too far "
        f"from analytic {g['analytic_be']:.5f}"
    )
    assert abs(g["sim_res"] - g["analytic_res"]) <= g["sim_res_ci"] + BIAS_FLOOR, (
        f"R(C) estimate {g['sim_res']:.5f} +/- {g['sim_res_ci']:.5f} too far "
        f"from analytic {g['analytic_res']:.5f}"
    )
    assert (
        abs(g["sim_gap"] - g["analytic_gap"])
        <= g["sim_gap_ci"] + GAP_BIAS_FLOOR
    ), (
        f"CRN gap {g['sim_gap']:.6f} +/- {g['sim_gap_ci']:.6f} does not "
        f"cover the analytic delta {g['analytic_gap']:.6f}"
    )
    a = stats["adaptive"]
    assert a["converged"], "run_until failed to reach the CI target"
    assert a["ci_halfwidth"] <= a["target_ci"], (
        f"reported CI {a['ci_halfwidth']:.5f} above target {a['target_ci']:g}"
    )
    assert abs(a["mean"] - a["analytic_be"]) <= a["ci_halfwidth"] + BIAS_FLOOR, (
        f"adaptive estimate {a['mean']:.5f} +/- {a['ci_halfwidth']:.5f} "
        f"too far from analytic {a['analytic_be']:.5f}"
    )


def write_json(stats: Dict) -> None:
    JSON_PATH.write_text(json.dumps(stats, indent=2) + "\n")


def append_history(stats: Dict) -> None:
    """Record the headline metrics in the bench-history ledger.

    The speedup ratio gates; raw throughput and the adaptive
    replication count are informational (``gated=False``) — the first
    is a machine fact, the second a stochastic one.
    """
    from repro.obs import ledger

    digest = ledger.digest_config(stats["config"])
    h = stats["headline"]
    a = stats["adaptive"]
    ledger.append_entries(
        HISTORY_PATH,
        [
            ledger.make_entry(
                "bench_ensemble",
                "vectorized_speedup",
                h["speedup"],
                direction=ledger.HIGHER_IS_BETTER,
                config_digest=digest,
                unit="x",
            ),
            ledger.make_entry(
                "bench_ensemble",
                "ensemble_events_per_s",
                h["ensemble_events_per_s"],
                direction=ledger.HIGHER_IS_BETTER,
                config_digest=digest,
                unit="events/s",
                gated=False,
            ),
            ledger.make_entry(
                "bench_ensemble",
                "adaptive_replications",
                a["replications"],
                direction=ledger.LOWER_IS_BETTER,
                config_digest=digest,
                gated=False,
            ),
        ],
    )


def test_ensemble_speedup(benchmark, record):
    from benchmarks.conftest import run_once

    stats = run_once(benchmark, measure)
    record("ensemble_speedup", render(stats))
    write_json(stats)
    check(stats)
    append_history(stats)


def main() -> int:
    stats = measure()
    text = render(stats)
    results = pathlib.Path(__file__).parent / "results"
    results.mkdir(exist_ok=True)
    (results / "ensemble_speedup.txt").write_text(f"# ensemble_speedup\n{text}\n")
    write_json(stats)
    print(text)
    check(stats)
    append_history(stats)
    print("ensemble speedup targets met")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
