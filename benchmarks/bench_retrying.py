"""Benchmark T5/S5.2 — the retrying extension (Section 5.2).

Records the retrying checkpoint table and the basic-vs-retrying sweep
(algebraic load, adaptive apps, alpha = 0.1): the gap amplification at
large C (~10x at 4 k_bar) and — the paper's most striking reversal —
the equalizing ratio gamma(p) turning *non-monotone*: with retries,
cheaper bandwidth can make reservations more attractive.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.experiments.checkpoints import retrying_checkpoints
from repro.experiments.figures import retrying_gamma, retrying_series
from repro.experiments.report import render_checkpoints, render_series


def test_t5_retrying_checkpoints(benchmark, record):
    rows = run_once(benchmark, retrying_checkpoints)
    record("T5_retrying_checkpoints", render_checkpoints(rows))
    assert all(row.matches for row in rows)


def test_s52_retrying_sweep(benchmark, config, record):
    series = run_once(benchmark, retrying_series, "algebraic", "adaptive", config)
    record("S52_retrying_sweep", render_series(series))

    caps = series["capacity"]
    late = caps >= 3.0 * config.kbar
    basic = series["performance_gap_basic"]
    retry = series["performance_gap_retrying"]

    # the retry effect is *more* visible at large C (paper Section 5.2)
    amp_late = retry[late] / np.maximum(basic[late], 1e-12)
    assert np.all(amp_late > 3.0)

    # retries per flow fall with capacity
    d = series["retries_per_flow"]
    assert np.all(np.diff(d) <= 1e-9)

    # bandwidth gap grows even faster than the basic model's
    hi = caps >= 2.0 * config.kbar
    slope_basic = np.polyfit(caps[hi], series["bandwidth_gap_basic"][hi], 1)[0]
    slope_retry = np.polyfit(caps[hi], series["bandwidth_gap_retrying"][hi], 1)[0]
    assert slope_retry > slope_basic > 0.0


def test_s52_retry_gamma_non_monotone(benchmark, config, record):
    """The Section 5.2 welfare reversal: gamma(p) peaks then falls.

    "the price ratio curve gamma(p), which in all previous cases was
    monotonically increasing, now decreases for very small p" — checked
    at paper scale with the welfare kernel on a capacity table
    (checkpoint T5.7 and the ``retrying_gamma`` golden pin hold the
    same curve).
    """
    curve = run_once(benchmark, retrying_gamma, config)
    rows = [
        f"p={p:9.5f}  gamma={g:8.4f}"
        for p, g in zip(curve["price"], curve["gamma"])
        if np.isfinite(g)
    ]
    record("S52_retry_gamma", "\n".join(rows))

    gamma = curve["gamma"][np.isfinite(curve["gamma"])]
    peak = int(np.argmax(gamma))
    assert 0 < peak < len(gamma) - 1  # interior peak = non-monotone
    assert gamma.max() > 1.3  # far above the basic model's ~1.02
