"""Benchmark — overhead of the ``repro.obs`` instrumentation layer.

Measures what observability costs on a fixed solver loop: inverting
the paper's adaptive utility curve with
:func:`repro.numerics.solvers.find_root`.  That is a one-element call
of the batch root finder :func:`repro.numerics.batch.find_roots`, a
few hundred microseconds a solve, most of it numpy call overhead on
one-element arrays.  Model sweeps solve whole grids in one
``find_roots`` call instead, so the loop is not a model of where time
goes in a run; it is kept fixed so the ledger series stays comparable.
The overhead fractions are per solve, so they shrink as the solve
itself gets slower: compare them only at a fixed ``per_solve_us``.

Three numbers are asserted:

* enabled overhead stays under ~10% (the ``batch.solve.*`` counters
  and the ``batch.find_roots`` span, once per solve);
* disabled overhead stays under ~1% — the disabled path is a single
  module-global flag check per solve, which is timed directly so the
  assertion does not hinge on sub-1% wall-clock noise;
* with no journal open, ``obs.emit`` stays under ~1% per solve — that
  path is one module-global ``None`` check, timed the same way.

Wall-clock comparisons on shared machines drift by several percent, so
the enabled measurement interleaves disabled/enabled chunks and takes
the median of per-pair ratios; a same-run null measurement (disabled
vs disabled) quantifies the remaining harness noise and widens the
assertion threshold by exactly that much.

Run standalone (``python benchmarks/bench_obs_overhead.py``) or via
the harness (``pytest benchmarks/bench_obs_overhead.py``); both write
``benchmarks/results/obs_overhead.txt``, the gated ``BENCH_obs.json``
snapshot at the repository root, and a bench-history ledger append.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time
from typing import Callable, Dict

from repro import obs
from repro.numerics.solvers import find_root
from repro.utility import AdaptiveUtility

#: Solves per timed chunk (one sample ~ a few milliseconds).
CHUNK = 120

#: Interleaved (disabled, disabled, enabled) sample triples.
PAIRS = 80

#: Overhead targets from the issue ("~10% enabled, ~1% disabled").
ENABLED_LIMIT = 0.10
DISABLED_LIMIT = 0.01

#: The no-journal ``obs.emit`` guard must also stay under 1% per solve.
JOURNAL_LIMIT = 0.01

ROOT = pathlib.Path(__file__).resolve().parent.parent
JSON_PATH = ROOT / "BENCH_obs.json"
HISTORY_PATH = ROOT / "benchmarks" / "results" / "history.jsonl"


def _solver_chunk() -> None:
    """CHUNK utility-curve inversions (the fixed solver loop)."""
    u = AdaptiveUtility()
    for i in range(CHUNK):
        target = 0.05 + (i % 17) * 0.05
        find_root(lambda x: u(x) - target, 0.0, 10.0, expand=True, label="bench")


def _sample(loop: Callable[[], None]) -> float:
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


def measure_overhead() -> Dict[str, float]:
    """Interleaved paired-ratio measurement of obs overhead.

    Returns per-solve time, the median enabled/disabled ratio, the
    same-run null ratio (harness noise floor), and the directly timed
    disabled-path guard cost.
    """
    _solver_chunk()  # warm caches, kappa calibration, etc.
    null_ratios = []
    enabled_ratios = []
    per_solve = float("inf")
    for _ in range(PAIRS):
        obs.disable()
        obs.reset()
        base = _sample(_solver_chunk)
        null = _sample(_solver_chunk)
        obs.enable()
        enabled = _sample(_solver_chunk)
        null_ratios.append(null / base)
        enabled_ratios.append(enabled / base)
        per_solve = min(per_solve, base / CHUNK)
    obs.disable()
    obs.reset()

    # The disabled path adds exactly one obs.enabled() flag check per
    # solve; time it directly instead of hunting for <1% in the noise.
    checks = 200_000
    t0 = time.perf_counter()
    for _ in range(checks):
        obs.enabled()
    guard = (time.perf_counter() - t0) / checks

    # Same treatment for the journal: with no journal open, obs.emit
    # is one module-global None check (plus the call itself).
    obs.close_journal()
    t0 = time.perf_counter()
    for _ in range(checks):
        obs.emit("bench.noop")
    journal_guard = (time.perf_counter() - t0) / checks

    return {
        "per_solve_us": per_solve * 1e6,
        "null_overhead": statistics.median(null_ratios) - 1.0,
        "enabled_overhead": statistics.median(enabled_ratios) - 1.0,
        "guard_ns": guard * 1e9,
        "disabled_overhead": guard / per_solve,
        "journal_guard_ns": journal_guard * 1e9,
        "journal_disabled_overhead": journal_guard / per_solve,
    }


def render(stats: Dict[str, float]) -> str:
    noise = abs(stats["null_overhead"])
    return "\n".join(
        [
            f"find_root solve           {stats['per_solve_us']:.2f} us "
            f"(adaptive-utility inversion, {CHUNK} solves/chunk, "
            f"{PAIRS} chunk pairs)",
            f"harness noise (null A/A)  {stats['null_overhead'] * 100:+.2f}%",
            f"enabled overhead          {stats['enabled_overhead'] * 100:+.2f}% "
            f"(target < {ENABLED_LIMIT * 100:.0f}% + noise)",
            f"disabled guard check      {stats['guard_ns']:.1f} ns/solve",
            f"disabled overhead         {stats['disabled_overhead'] * 100:.3f}% "
            f"(target < {DISABLED_LIMIT * 100:.0f}%)",
            f"journal-off emit guard    {stats['journal_guard_ns']:.1f} ns/solve",
            f"journal-off overhead      "
            f"{stats['journal_disabled_overhead'] * 100:.3f}% "
            f"(target < {JOURNAL_LIMIT * 100:.0f}%)",
            f"noise allowance applied   {noise * 100:.2f}%",
        ]
    )


def check(stats: Dict[str, float]) -> None:
    """Assert the issue's overhead targets (with the measured noise)."""
    noise = abs(stats["null_overhead"])
    assert stats["enabled_overhead"] < ENABLED_LIMIT + noise, (
        f"enabled obs overhead {stats['enabled_overhead']:.1%} exceeds "
        f"{ENABLED_LIMIT:.0%} target (+{noise:.1%} measured noise)"
    )
    assert stats["disabled_overhead"] < DISABLED_LIMIT, (
        f"disabled obs overhead {stats['disabled_overhead']:.3%} exceeds "
        f"{DISABLED_LIMIT:.0%} target"
    )
    assert stats["journal_disabled_overhead"] < JOURNAL_LIMIT, (
        f"journal-off emit overhead "
        f"{stats['journal_disabled_overhead']:.3%} exceeds "
        f"{JOURNAL_LIMIT:.0%} target"
    )


def write_json(stats: Dict[str, float]) -> None:
    JSON_PATH.write_text(
        json.dumps(
            {
                "generated_by": "benchmarks/bench_obs_overhead.py",
                "config": {
                    "chunk": CHUNK,
                    "pairs": PAIRS,
                    "enabled_limit": ENABLED_LIMIT,
                    "disabled_limit": DISABLED_LIMIT,
                    "journal_limit": JOURNAL_LIMIT,
                },
                "headline": stats,
            },
            indent=2,
        )
        + "\n"
    )


def append_history(stats: Dict[str, float]) -> None:
    """Record the overhead fractions in the bench-history ledger.

    All three overheads are ratios of times measured in the same run,
    so they transfer across machines and gate; the absolute per-solve
    time is informational.
    """
    from repro.obs import ledger

    digest = ledger.digest_config(
        {"chunk": CHUNK, "pairs": PAIRS, "solver": "adaptive-utility"}
    )
    ledger.append_entries(
        HISTORY_PATH,
        [
            ledger.make_entry(
                "bench_obs",
                "enabled_overhead",
                stats["enabled_overhead"],
                direction=ledger.LOWER_IS_BETTER,
                config_digest=digest,
            ),
            ledger.make_entry(
                "bench_obs",
                "disabled_overhead",
                stats["disabled_overhead"],
                direction=ledger.LOWER_IS_BETTER,
                config_digest=digest,
            ),
            ledger.make_entry(
                "bench_obs",
                "journal_disabled_overhead",
                stats["journal_disabled_overhead"],
                direction=ledger.LOWER_IS_BETTER,
                config_digest=digest,
            ),
            ledger.make_entry(
                "bench_obs",
                "per_solve_us",
                stats["per_solve_us"],
                direction=ledger.LOWER_IS_BETTER,
                config_digest=digest,
                unit="us",
                gated=False,
            ),
        ],
    )


def test_obs_overhead(benchmark, record):
    from benchmarks.conftest import run_once

    stats = run_once(benchmark, measure_overhead)
    record("obs_overhead", render(stats))
    write_json(stats)
    check(stats)
    append_history(stats)


def main() -> int:
    stats = measure_overhead()
    text = render(stats)
    results = pathlib.Path(__file__).parent / "results"
    results.mkdir(exist_ok=True)
    (results / "obs_overhead.txt").write_text(f"# obs_overhead\n{text}\n")
    write_json(stats)
    print(text)
    check(stats)
    append_history(stats)
    print("overhead targets met")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
