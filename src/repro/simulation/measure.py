"""Measurement: scoring simulation runs against the analytic model.

Everything here consumes a :class:`~repro.simulation.simulator.SimulationResult`
and a utility function, producing the quantities the paper's static
model predicts:

- the time-weighted empirical census distribution (vs ``P(k)``),
- flow-average utilities under both sharing disciplines (vs ``B(C)``
  and ``R(C)``),
- worst-of-S-samples utilities (vs the Section 5.1 sampling model),
- the arrival-census histogram (vs the size-biased ``Q(k)``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.loads.base import LoadDistribution
from repro.simulation.ensemble import _level_tables
from repro.simulation.simulator import SimulationResult
from repro.utility.base import UtilityFunction


def census_distribution(
    result: SimulationResult, *, use_admitted: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """Time-weighted empirical census pmf after warmup.

    Returns ``(values, probabilities)`` with values the census levels
    held a positive time in the window.  ``use_admitted`` histograms
    the admitted count instead of the full census.  The run is one row
    of the ensemble's time-at-level table.
    """
    traj = result.trajectory
    series = traj.admitted if use_admitted else traj.census
    (table,) = _level_tables(
        traj.times[None, :],
        traj.horizon,
        result.warmup,
        result.horizon,
        series[None, :],
    )
    values, probs = table.pmf()
    return values.astype(series.dtype), probs


def empirical_mean_census(result: SimulationResult) -> float:
    """Time-average census after warmup."""
    values, probs = census_distribution(result)
    return float(np.dot(values, probs))


def census_total_variation(
    result: SimulationResult, load: LoadDistribution, *, k_max: Optional[int] = None
) -> float:
    """Total-variation distance between empirical census and ``P(k)``.

    ``k_max`` bounds the comparison support (default: well past both
    distributions' mass).
    """
    values, probs = census_distribution(result)
    hi = k_max if k_max is not None else int(max(values.max(), 4 * load.mean)) + 1
    empirical = np.zeros(hi + 1)
    for v, p in zip(values.astype(int), probs):
        if 0 <= v <= hi:
            empirical[v] += p
    ks = np.arange(hi + 1)
    analytic = np.asarray(load.pmf_array(ks.astype(float)), dtype=float)
    if load.support_min > 0:
        analytic[: load.support_min] = 0.0
    tv = 0.5 * float(np.abs(empirical - analytic).sum())
    # mass beyond the comparison window counts fully toward TV
    tv += 0.5 * float(load.sf(hi))
    return tv


def _cumulative_utility(
    result: SimulationResult, utility: UtilityFunction, which: str
) -> np.ndarray:
    """``int_0^{times[i]} pi(C / level(s)) ds`` along the trajectory.

    ``which`` selects the sharing discipline: ``"census"`` scores the
    best-effort share ``C / N(t)``, ``"admitted"`` the reservation
    share ``C / M(t)``.
    """
    traj = result.trajectory
    levels = traj.census if which == "census" else traj.admitted
    shares = np.where(levels > 0, result.capacity / np.maximum(levels, 1.0), 0.0)
    rates = np.where(levels > 0, utility(shares), 0.0)
    segment = rates * traj.segment_durations()
    cumulative = np.concatenate(([0.0], np.cumsum(segment)))
    return cumulative  # cumulative[i] = integral up to times[i]


def _integral_between(
    result: SimulationResult,
    utility: UtilityFunction,
    cumulative: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    which: str,
) -> np.ndarray:
    """Exact integral of the piecewise-constant rate over ``[a, b]``."""
    traj = result.trajectory
    levels = traj.census if which == "census" else traj.admitted

    def eval_cum(t: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(traj.times, t, side="right") - 1
        idx = np.clip(idx, 0, len(traj.times) - 1)
        seg_levels = levels[idx]
        shares = np.where(
            seg_levels > 0, result.capacity / np.maximum(seg_levels, 1.0), 0.0
        )
        rates = np.where(seg_levels > 0, utility(shares), 0.0)
        return cumulative[idx] + rates * (t - traj.times[idx])

    return eval_cum(b) - eval_cum(a)


def mean_utilities(
    result: SimulationResult, utility: UtilityFunction
) -> Tuple[float, float]:
    """Flow-average utilities ``(best_effort, reservation)``.

    Best-effort scores every completed flow by its lifetime-average
    ``pi(C/N(t))``.  Reservation scores admitted flows by their
    lifetime-average ``pi(C/M(t))`` from admission to departure and
    never-admitted flows as zero, then averages over *all* completed
    flows — exactly the paper's accounting.
    """
    mask = result.completed_mask()
    if not mask.any():
        raise ValueError("no completed flows in the measurement window")
    flows = result.flows
    arrivals = flows.arrival[mask]
    departures = flows.departure[mask]
    durations = np.maximum(departures - arrivals, 1e-12)

    cum_be = _cumulative_utility(result, utility, "census")
    be_integral = _integral_between(
        result, utility, cum_be, arrivals, departures, "census"
    )
    best_effort = float(np.mean(be_integral / durations))

    admitted = flows.admitted[mask]
    admit_times = flows.admit_time[mask]
    reservation_scores = np.zeros(int(mask.sum()))
    if admitted.any():
        cum_res = _cumulative_utility(result, utility, "admitted")
        res_a = admit_times[admitted]
        res_b = departures[admitted]
        res_durations = np.maximum(res_b - res_a, 1e-12)
        res_integral = _integral_between(
            result, utility, cum_res, res_a, res_b, "admitted"
        )
        reservation_scores[admitted] = res_integral / res_durations
    reservation = float(np.mean(reservation_scores))
    return best_effort, reservation


def sampled_worst_utilities(
    result: SimulationResult,
    utility: UtilityFunction,
    samples: int,
    *,
    seed: Optional[int] = None,
) -> Tuple[float, float]:
    """Worst-of-S-samples scoring (the Section 5.1 picture).

    Each completed flow samples the census at ``samples`` uniform
    times in its lifetime and is scored at the worst.  Returns
    ``(best_effort, reservation)`` flow averages; reservation scores
    use the admitted count (capped census) and zero for rejected flows.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples!r}")
    mask = result.completed_mask()
    if not mask.any():
        raise ValueError("no completed flows in the measurement window")
    rng = np.random.default_rng(seed)
    flows = result.flows
    arrivals = flows.arrival[mask]
    departures = flows.departure[mask]
    n = len(arrivals)

    u = rng.random((n, samples))
    times = arrivals[:, None] + u * (departures - arrivals)[:, None]
    census = result.trajectory.value_at(times.ravel(), "census").reshape(n, samples)
    worst = census.max(axis=1)
    be_scores = utility(np.where(worst > 0, result.capacity / np.maximum(worst, 1.0), 0.0))
    be_scores = np.where(worst > 0, be_scores, 0.0)

    admitted = flows.admitted[mask]
    res_scores = np.zeros(n)
    if admitted.any():
        admit_times = flows.admit_time[mask][admitted]
        dep = departures[admitted]
        u2 = rng.random((int(admitted.sum()), samples))
        t2 = admit_times[:, None] + u2 * (dep - admit_times)[:, None]
        adm_census = result.trajectory.value_at(t2.ravel(), "admitted").reshape(
            int(admitted.sum()), samples
        )
        worst2 = adm_census.max(axis=1)
        scores = utility(
            np.where(worst2 > 0, result.capacity / np.maximum(worst2, 1.0), 0.0)
        )
        res_scores[admitted] = np.where(worst2 > 0, scores, 0.0)
    return float(np.mean(be_scores)), float(np.mean(res_scores))


def retry_adjusted_utilities(
    result: SimulationResult,
    utility: UtilityFunction,
    *,
    alpha: float = 0.1,
) -> Tuple[float, float]:
    """Flow-average utilities with the Section 5.2 retry penalty.

    Returns ``(best_effort, reservation_with_penalty)``: the best-effort
    score is unchanged (nothing blocks), while each flow's reservation
    score is its admitted-window mean utility minus ``alpha`` per failed
    admission attempt — the dynamic counterpart of the static model's
    ``R~ = ... - alpha D``.  Run the simulator with a nonzero
    ``retry_rate`` for the attempts to exist.
    """
    if alpha < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha!r}")
    best_effort, reservation = mean_utilities(result, utility)
    mask = result.completed_mask()
    mean_failures = float(result.flows.failed_attempts[mask].mean())
    return best_effort, reservation - alpha * mean_failures


def arrival_census_distribution(
    result: SimulationResult,
) -> Tuple[np.ndarray, np.ndarray]:
    """Histogram of the census seen at flow arrivals (after warmup).

    Under the engineered birth-death dynamics this should match the
    *birth-rate-weighted* census, which for the M/M/inf case equals the
    plain census ``P(k)`` (PASTA) — a useful cross-check on the
    size-biased machinery.
    """
    mask = result.completed_mask()
    seen = result.flows.census_at_arrival[mask]
    if len(seen) == 0:
        raise ValueError("no completed flows in the measurement window")
    values, counts = np.unique(seen, return_counts=True)
    return values, counts / counts.sum()
