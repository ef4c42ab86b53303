"""Time-at-level tables against the per-segment scoring they replace.

Every census-path statistic (the ensemble's ``mean_census``,
``census_distribution`` and ``utility_estimates``, the simulator's
``census_distribution``, a trace replay's ``evaluate``) is read off one
time-at-level table.  The references here score each path segment by
segment instead: window-clipped weights
``max(0, min(stop, horizon) - max(start, warmup))``, the size-biased
``sum w n pi(C/n) / sum w n``, and the in-window admitted-arrival
fraction under lost-calls clearing.  A trace is scored the older way
too: each window's histogram laid out as a fabricated trajectory row.
"""

import numpy as np
import pytest

from repro.loads import PoissonLoad
from repro.simulation import (
    BirthDeathProcess,
    EnsembleResult,
    EnsembleSimulator,
    FlowSimulator,
    Link,
    ParetoBatchProcess,
    PoissonProcess,
    RegimeSwitchingProcess,
    ThresholdAdmission,
    census_distribution,
    empirical_mean_census,
)
from repro.traces import default_workload, sweep_occupancy
from repro.utility import AdaptiveUtility

RTOL = 1e-13
UTILITY = AdaptiveUtility()


def _weights(times, stop, warmup, horizon):
    """Per-segment time inside ``[warmup, horizon]``; the last ends at ``stop``."""
    ends = np.concatenate([times[:, 1:], np.full((len(times), 1), stop)], axis=1)
    return np.maximum(0.0, np.minimum(ends, horizon) - np.maximum(times, warmup))


def _size_biased(levels, weights, capacity):
    """``sum w n pi(C/n) / sum w n`` per row (0 without flow-time)."""
    shares = np.where(levels > 0, capacity / np.maximum(levels, 1.0), 0.0)
    scores = np.where(levels > 0, UTILITY(shares), 0.0)
    mass = (weights * levels).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (weights * levels * scores).sum(axis=1) / mass
    return np.where(mass > 0.0, out, 0.0)


def _reference_estimates(result):
    """Per-segment ``(B_hat, R_hat)`` of an :class:`EnsembleResult`."""
    w = _weights(result.times, result.horizon, result.warmup, result.horizon)
    be = _size_biased(result.census, w, result.capacity)
    if result.lost_calls_cleared:
        fraction = np.where(
            result.arrivals > 0,
            result.admissions / np.maximum(result.arrivals, 1),
            1.0,
        )
        return be, fraction * _size_biased(result.admitted, w, result.capacity)
    m = result.admitted
    shares = np.where(m > 0, result.capacity / np.maximum(m, 1.0), 0.0)
    scores = np.where(m > 0, UTILITY(shares), 0.0)
    mass = (w * result.census).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        res = (w * m * scores).sum(axis=1) / mass
    return be, np.where(mass > 0.0, res, 0.0)


def _reference_pmf(levels, weights):
    keep = weights.ravel() > 0.0
    values, inverse = np.unique(levels.ravel()[keep], return_inverse=True)
    probs = np.bincount(inverse, weights=weights.ravel()[keep])
    return values, probs / probs.sum()


def _check_ensemble(result):
    w = _weights(result.times, result.horizon, result.warmup, result.horizon)
    for got, want in zip(result.utility_estimates(UTILITY), _reference_estimates(result)):
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0)
    np.testing.assert_allclose(
        result.mean_census(),
        (w * result.census).sum(axis=1) / w.sum(axis=1),
        rtol=RTOL,
        atol=0.0,
    )
    values, probs = result.census_distribution()
    ref_values, ref_probs = _reference_pmf(result.census, w)
    np.testing.assert_array_equal(values, ref_values)
    assert values.dtype == ref_values.dtype
    np.testing.assert_allclose(probs, ref_probs, rtol=RTOL, atol=0.0)


ENSEMBLES = {
    "readmitting-census-only": (
        lambda: EnsembleSimulator(
            BirthDeathProcess(PoissonLoad(20.0)),
            Link(22.0),
            ThresholdAdmission.from_utility(UTILITY, readmit_waiting=True),
        ),
        "vectorized",
    ),
    "finite-threshold-with-retries": (
        lambda: EnsembleSimulator(
            BirthDeathProcess(PoissonLoad(20.0)),
            Link(22.0),
            ThresholdAdmission(17),
            retry_rate=0.5,
        ),
        "vectorized",
    ),
    "lost-calls-cleared": (
        lambda: EnsembleSimulator(
            PoissonProcess(15.0),
            Link(16.0),
            ThresholdAdmission(14),
            lost_calls_cleared=True,
        ),
        "vectorized",
    ),
    "batch-births": (
        lambda: EnsembleSimulator(
            ParetoBatchProcess(4.0, shape=1.7), Link(12.0), ThresholdAdmission(10)
        ),
        "vectorized",
    ),
    "stateful-scalar-fallback": (
        lambda: EnsembleSimulator(
            RegimeSwitchingProcess(
                [(1.0, PoissonLoad(6.0)), (1.0, PoissonLoad(12.0))], seed=2
            ),
            Link(10.0),
            ThresholdAdmission(9, readmit_waiting=True),
        ),
        "scalar",
    ),
}


@pytest.mark.parametrize("name", ENSEMBLES)
def test_ensemble_statistics_match_per_segment_scoring(name):
    build, engine = ENSEMBLES[name]
    result = build().run(6, 40.0, warmup=7.5, seed=11)
    assert result.engine == engine
    # admission must bind for the R_hat comparison to bite: clearing
    # turns calls away, every other mode holds some flows waiting
    if result.lost_calls_cleared:
        assert (result.admissions < result.arrivals).all()
    else:
        assert (result.admitted < result.census).any()
    _check_ensemble(result)


def test_a_warmup_free_window_and_rows_without_flow_time():
    # warmup 0 keeps the t = 0 segment; from an empty link a row that
    # never steps holds level 0 to the horizon and scores 0
    result = EnsembleSimulator(
        PoissonProcess(1.0), Link(3.0), ThresholdAdmission(2, readmit_waiting=True)
    ).run(8, 0.7, seed=21, initial_census=0)
    assert (result.events == 0).any() and (result.events > 0).any()
    _check_ensemble(result)


def test_simulator_run_census_distribution_matches_per_segment_pmf():
    result = FlowSimulator(
        BirthDeathProcess(PoissonLoad(12.0)), Link(14.0), ThresholdAdmission(11)
    ).run(60.0, warmup=9.0, seed=4)
    traj = result.trajectory
    w = _weights(traj.times[None, :], traj.horizon, result.warmup, result.horizon)
    for use_admitted, levels in ((False, traj.census), (True, traj.admitted)):
        values, probs = census_distribution(result, use_admitted=use_admitted)
        ref_values, ref_probs = _reference_pmf(levels[None, :], w)
        np.testing.assert_array_equal(values, ref_values)
        np.testing.assert_allclose(probs, ref_probs, rtol=RTOL, atol=0.0)
    values, probs = _reference_pmf(traj.census[None, :], w)
    assert empirical_mean_census(result) == pytest.approx(
        float(np.dot(values, probs)), rel=RTOL
    )


def _fabricated_rows(occupancy, m_cap, capacity):
    """Each window's histogram as a trajectory row, closed at level 0."""
    windows, edges, occ = occupancy.windows, occupancy.edges, occupancy.occupancy
    present = [np.flatnonzero(occ[w] > 0.0) for w in range(windows)]
    length = max(len(levels) for levels in present) + 1
    times = np.full((windows, length), occupancy.horizon)
    census = np.zeros((windows, length))
    counts = np.zeros(windows, dtype=np.int64)
    for w, levels in enumerate(present):
        durations = occ[w, levels]
        k = len(levels)
        times[w, :k] = edges[w] + np.concatenate([[0.0], np.cumsum(durations[:-1])])
        census[w, :k] = levels
        times[w, k] = edges[w + 1]
        counts[w] = k + 1
    return EnsembleResult(
        times=times,
        census=census,
        admitted=np.minimum(census, m_cap),
        counts=counts,
        arrivals=np.zeros(windows, dtype=np.int64),
        admissions=np.zeros(windows, dtype=np.int64),
        capacity=capacity,
        warmup=occupancy.warmup,
        horizon=occupancy.horizon,
    )


@pytest.mark.parametrize("factor", [0.9, 1.0, 1.25])
def test_trace_occupancy_matches_the_fabricated_row_path(factor):
    stream = default_workload("bursty", 20.0).stream(120.0, seed=5)
    occupancy = sweep_occupancy(stream, windows=6, warmup=12.0)
    capacity = factor * 20.0
    result = occupancy.evaluate(UTILITY, capacity)
    policy = ThresholdAdmission.from_utility(UTILITY, readmit_waiting=True)
    cap = policy.admitted_cap(capacity)
    # the fold must bind: some window spends time above the cap
    assert occupancy.max_census > cap
    be, res = _reference_estimates(_fabricated_rows(occupancy, cap, capacity))
    np.testing.assert_allclose(result.paired.best_effort, be, rtol=RTOL, atol=0.0)
    np.testing.assert_allclose(result.paired.reservation, res, rtol=RTOL, atol=0.0)
    # the pooled pmf and mean are the histogram's column sums, normalised
    pooled = occupancy.occupancy.sum(axis=0)
    values = np.flatnonzero(pooled > 0.0)
    np.testing.assert_array_equal(result.census_values, values)
    np.testing.assert_allclose(
        result.census_pmf, pooled[values] / pooled.sum(), rtol=RTOL, atol=0.0
    )
    mean = float(np.dot(np.arange(len(pooled)), pooled) / pooled.sum())
    assert result.mean_census == pytest.approx(mean, rel=RTOL)
    assert occupancy.mean_census() == result.mean_census
