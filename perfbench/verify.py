"""``verify``: the developer's check, ``repro verify`` on the fast suite.

Each repetition is a fresh spawn child that runs the fast suite through
the result cache exactly as the CLI does (``verify.runner.cached_suite``
into an empty cache: the cold run evaluates every invariant), then
``warm`` more times, which ``repro verify`` serves from the cache.  It
is the one workload that runs the batch-vs-scalar parity invariants,
the emulator fit (EM1) and all five engines.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
from dataclasses import dataclass
from typing import List, Optional

from perfbench import layers, procs
from perfbench.report import (
    Outcome,
    add_cold_warm,
    children_outcome,
    cold_warm_payload,
    timing_rows,
)

SUITE = "fast"


@dataclass(frozen=True)
class Size:
    fast_config: bool
    expected_passed: Optional[int]  # None: every invariant of the suite
    warm: int
    min_reps: int


SIZES = {
    "full": Size(fast_config=False, expected_passed=52, warm=25, min_reps=3),
    "tiny": Size(fast_config=True, expected_passed=None, warm=2, min_reps=1),
}


def check_report(report, expected_passed: Optional[int]) -> List[str]:
    """One failure message per invariant that did not pass."""
    failures = [f"{o.inv_id}: {o.detail}" for o in report.outcomes if not o.passed]
    passed = report.counts()["passed"]
    if expected_passed is not None and passed != expected_passed and not failures:
        failures.append(f"suite ran {passed} invariants, expected {expected_passed}")
    return failures


def check_warm(cold: dict, warm, from_cache: bool, rep: int) -> List[str]:
    """A warm ``repro verify`` must be a cache hit with the cold report."""
    if not from_cache:
        return [f"warm {rep}: suite recomputed instead of read from the cache"]
    if warm.to_dict() != cold:
        return [f"warm {rep}: cached report differs from the cold one"]
    return []


def child(ready, size: Size, traced: bool, tmp_root: str) -> dict:
    """One fresh process: cold ``repro verify``, then warm ones."""
    from repro.experiments.params import DEFAULT_CONFIG, FAST_CONFIG
    from repro.obs.resources import peak_rss_bytes
    from repro.runner import ResultCache
    from repro.verify.runner import cached_suite

    config = FAST_CONFIG if size.fast_config else DEFAULT_CONFIG
    cache_dir = tempfile.mkdtemp(dir=tmp_root)
    cache = ResultCache(cache_dir)
    layer_tracer = layers.LayerTracer().install() if traced else None
    ready()
    ((report, from_cache),), (cold_s,), (cold_ref_s,) = procs.timed(
        lambda: cached_suite(SUITE, config, cache=cache)
    )
    warm, warm_s, warm_ref_s = procs.timed(
        lambda: cached_suite(SUITE, config, cache=cache), size.warm
    )
    shutil.rmtree(cache_dir)
    failures = check_report(report, size.expected_passed)
    if from_cache:
        failures.append("cold run was served from the cache")
    for rep, (again, from_cache) in enumerate(warm):
        failures += check_warm(report.to_dict(), again, from_cache, rep)
    return {
        **cold_warm_payload(cold_s, cold_ref_s, warm_s, warm_ref_s),
        "traced": traced,
        "invariants": [(o.inv_id, o.engines, o.seconds) for o in report.outcomes],
        "attempted": len(report.outcomes) * (1 + size.warm),
        "failures": failures,
        "rss_mb": peak_rss_bytes() / 2**20,
        "spans": layer_tracer.tracer.roots() if layer_tracer else [],
    }


def _verify_layer(traced: List[dict]) -> dict:
    """Invariant seconds summed per engine, and the slowest invariants."""
    per_child = []
    for payload in traced:
        seconds = {f"verify.engine.{e}_s": 0.0 for e in layers.VERIFY_ENGINES}
        for inv_id, engines, spent in payload["invariants"]:
            for engine in engines:
                seconds[f"verify.engine.{engine}_s"] += spent
            if inv_id in layers.VERIFY_TOP:
                seconds[f"verify.invariant.{inv_id}_s"] = spent
        per_child.append(seconds)
    return {
        name: statistics.median(c.get(name, 0.0) for c in per_child)
        for name in per_child[0]
    }


def run(seed: int, seconds: float, trace: bool, tmp, size: str = "full") -> Outcome:
    """``seed`` is unused: the suite is deterministic in the config."""
    params = SIZES[size]
    runs = procs.repeat_children(
        child,
        lambda i: (params, trace and i % 2 == 1, str(tmp)),
        seconds=seconds,
        min_reps=max(params.min_reps, 2 if trace else 1),
    )
    title = f"verify: {SUITE} suite cold then cached, {len(runs)} fresh processes"
    outcome = children_outcome("verify", title, runs, trace, _verify_layer)
    if trace:
        return outcome
    cold, warm = add_cold_warm(outcome, runs)
    outcome.rows += [
        *timing_rows("verify_fast_s", cold, "s", "empty cache, fresh process"),
        *timing_rows("verify_cached_ms", [w * 1e3 for w in warm], "ms", "cache hit"),
    ]
    return outcome
