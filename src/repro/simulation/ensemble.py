"""Ensemble Monte Carlo engine: R replications, one census walk each.

The scalar :class:`~repro.simulation.simulator.FlowSimulator` executes
one Gillespie trajectory with per-flow Python bookkeeping; answering a
statistical question ("is the simulated ``delta`` gap within the CI of
the analytic one?") needs *many* trajectories with controlled error.
This module runs R independent replications of the census alone:

- **Census walks.**  Because the census-level state ``(N, M)`` is two
  integers, the full scalar event semantics (threshold admission,
  batch arrivals, departures with promotion, retries,
  lost-calls-cleared) collapse to integer updates.  Each replication
  is walked in turn, one block of its draws at a time: the state is
  stepped through the block in plain Python ints and floats with the
  scalar engine's expressions, rates are read from per-census tables
  built from the process's vector rates, and the block's event times
  come from one cumulative sum of ``z * (1/total)`` cut at the
  horizon.  At the 4-64 replications callers run, this beats moving
  all replications forward together with a round of array operations
  per event, whose per-call overhead dwarfed the arithmetic.
- **Census-only stepping.**  Without retries the census dynamics
  ignore admission, and a policy with a closed form
  (:meth:`~repro.simulation.admission.AdmissionPolicy.admitted_cap`:
  ``M = N`` for admit-all or an infinite threshold,
  ``M = min(N, ceil(threshold))`` for a readmitting threshold) needs
  no ``M`` in the walk: with unit births only ``N`` is stepped and
  ``M`` is derived from it after assembly.  Finite non-readmitting
  thresholds, retries, batch births and lost-calls clearing walk
  ``(N, M)``.
- **Exact parity.**  Draws come from the same per-replication block
  source (:meth:`~repro.simulation.streams.ReplicationStream.next_block`)
  the scalar engine pops its draws from, so an ensemble replication is
  event-for-event identical to ``FlowSimulator.run(stream=...)`` on
  the same seed child — the parity oracle ``benchmarks/bench_ensemble.py``
  enforces.
- **CRN pairing.**  :func:`paired_gap` scores best-effort and
  reservation arms on the *same* census trajectories, so the simulated
  ``delta(C) = R(C) - B(C)`` is estimated with common random numbers,
  leaving only admission-accounting noise.  Without retries or
  clearing no admission policy moves the census, so it is simulated
  once, by the reservation ensemble, and both arms are read off that
  run, on either engine and under any policy.
- **Precision-targeted stopping.**  :meth:`EnsembleSimulator.run_until`
  grows the ensemble in batches until a Student-t confidence interval
  on any per-replication statistic reaches a requested half-width.

Configurations the census walk cannot express (stateful demand
processes, custom admission policies) fall back to per-replication
scalar runs over the same streams — identical results, metered under
``ensemble.fallback.*``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import ModelError, SimulationBudgetError
from repro.simulation.admission import AdmissionPolicy, AdmitAll, ThresholdAdmission
from repro.simulation.link import Link
from repro.simulation.processes import DemandProcess
from repro.simulation.simulator import FlowSimulator, Trajectory
from repro.simulation.stats import AdaptiveEstimate, RunningStat
from repro.simulation.streams import (
    DEFAULT_BLOCK,
    ReplicationStream,
    event_layout,
    spawn_children,
)
from repro.utility.base import UtilityFunction

@dataclass(frozen=True)
class EnsembleResult:
    """Padded trajectories and counters for R replications.

    Row ``r`` of ``times``/``census``/``admitted`` holds replication
    ``r``'s piecewise-constant history in its first ``counts[r]``
    entries; the padding is ``(horizon, 0, 0)`` so every window-clipped
    segment weight beyond the valid prefix is exactly zero and the
    measurement methods need no masking.  ``arrivals``/``admissions``
    count flows arriving (and admitted on arrival) at event times
    inside the measurement window ``[warmup, horizon]``.
    """

    times: np.ndarray
    census: np.ndarray
    admitted: np.ndarray
    counts: np.ndarray
    arrivals: np.ndarray
    admissions: np.ndarray
    capacity: float
    warmup: float
    horizon: float
    engine: str = "vectorized"
    lost_calls_cleared: bool = False

    def __post_init__(self):
        if not (
            self.times.shape
            == self.census.shape
            == self.admitted.shape
        ) or self.times.ndim != 2:
            raise ValueError("trajectory arrays must share one (R, L) shape")
        if len(self.counts) != self.times.shape[0]:
            raise ValueError("counts must have one entry per replication")
        if not 0.0 <= self.warmup < self.horizon:
            raise ValueError(
                "warmup must be in [0, horizon): "
                f"warmup={self.warmup!r}, horizon={self.horizon!r}"
            )

    @property
    def replications(self) -> int:
        """Number of replications R."""
        return int(self.times.shape[0])

    @property
    def events(self) -> np.ndarray:
        """Executed events per replication (records minus the initial)."""
        return self.counts - 1

    def trajectory(self, r: int) -> Trajectory:
        """Replication ``r`` as a scalar-engine :class:`Trajectory`."""
        c = int(self.counts[r])
        return Trajectory(
            times=self.times[r, :c].copy(),
            census=self.census[r, :c].copy(),
            admitted=self.admitted[r, :c].copy(),
            horizon=self.horizon,
        )

    def _tables(self, *series: np.ndarray) -> List[_LevelTimes]:
        return _level_tables(self.times, self.horizon, self.warmup, self.horizon, *series)

    def mean_census(self) -> np.ndarray:
        """Per-replication time-average census over the window."""
        return self._tables(self.census)[0].means()

    def census_distribution(self) -> Tuple[np.ndarray, np.ndarray]:
        """Pooled time-weighted census pmf across all replications."""
        values, probs = self._tables(self.census)[0].pmf()
        return values.astype(self.census.dtype), probs

    def utility_estimates(
        self, utility: UtilityFunction
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-replication ``(B_hat, R_hat)``; see :func:`_flow_time_utilities`."""
        cleared = None
        if self.lost_calls_cleared:
            cleared = np.where(
                self.arrivals > 0,
                self.admissions / np.maximum(self.arrivals, 1),
                1.0,
            )
        census, admitted = self._tables(self.census, self.admitted)
        return _flow_time_utilities(census, admitted, self.capacity, utility, cleared)


@dataclass(frozen=True)
class _LevelTimes:
    """``time[r, j]``: how long row ``r`` held level ``lo + j`` in the window.

    A row is a replication, a replay window or one simulator run.  The
    paper's ``B`` and ``R`` see a census path only through this table
    (Section 3), so the pmf, the means and the flow-time utilities are
    all read off it, with ``pi`` evaluated once per level.
    """

    lo: int
    time: np.ndarray

    @property
    def levels(self) -> np.ndarray:
        return np.arange(self.lo, self.lo + self.time.shape[1], dtype=np.int64)

    def pmf(self) -> Tuple[np.ndarray, np.ndarray]:
        """Pooled pmf over the levels held a positive time."""
        pooled = self.time.sum(axis=0)
        held = pooled > 0.0
        if not held.any():
            raise ValueError("no trajectory mass in the measurement window")
        return self.levels[held], pooled[held] / pooled[held].sum()

    def means(self) -> np.ndarray:
        """Per-row time-average level."""
        mass = self.time.sum(axis=1)
        if not (mass > 0.0).all():
            raise ValueError("a row has no trajectory mass in the measurement window")
        return (self.time * self.levels).sum(axis=1) / mass

    def folded(self, cap: float) -> _LevelTimes:
        """The table of ``min(level, cap)`` for an integral or infinite ``cap``."""
        if cap >= self.lo + self.time.shape[1] - 1:
            return self
        col = max(int(cap) - self.lo, 0)
        time = self.time[:, : col + 1].copy()
        time[:, col] = self.time[:, col:].sum(axis=1)
        return _LevelTimes(min(int(cap), self.lo), time)

    def flow_time(
        self, capacity: float, utility: UtilityFunction
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row flow-time ``sum T n`` and utility ``sum T n pi(C/n)``."""
        n = self.levels.astype(float)
        shares = np.where(n > 0, capacity / np.maximum(n, 1.0), 0.0)
        scores = np.where(n > 0, utility(shares), 0.0)
        return (self.time * n).sum(axis=1), (self.time * (n * scores)).sum(axis=1)


def _level_tables(
    times: np.ndarray, end: float, warmup: float, horizon: float, *series: np.ndarray
) -> List[_LevelTimes]:
    """Per-row time-at-level tables of each ``series`` over ``[warmup, horizon]``.

    Row ``r`` holds ``series[r, i]`` from ``times[r, i]`` to the next
    time (the last segment to ``end``).  Differencing the times clipped
    to the window gives ``max(0, min(stop, horizon) - max(start,
    warmup))`` bit for bit, and each series is one ``bincount`` of
    those durations by ``(row, level)`` over the levels held a positive
    time, so a Poisson census near N spans O(sqrt(N)) columns.  Zero
    durations (padding, pre-warmup) add nothing where they are clipped.
    """
    cut = np.clip(times, warmup, horizon)
    durations = np.empty_like(cut)
    np.subtract(cut[:, 1:], cut[:, :-1], out=durations[:, :-1])
    np.subtract(min(max(end, warmup), horizon), cut[:, -1], out=durations[:, -1])
    del cut
    held = durations > 0.0
    bound = np.iinfo(np.int64)
    rows = len(times)
    tables = []
    for levels in series:
        index = levels.astype(np.int64)
        lo = hi = 0
        if held.any():
            lo = int(index.min(where=held, initial=bound.max))
            hi = int(index.max(where=held, initial=bound.min))
        width = hi - lo + 1
        index += (np.arange(rows, dtype=np.int64) * width - lo)[:, None]
        np.clip(index, 0, rows * width - 1, out=index)
        time = np.bincount(index.ravel(), weights=durations.ravel(), minlength=rows * width)
        tables.append(_LevelTimes(lo, time.reshape(rows, width)))
    return tables


def _flow_time_utilities(
    census: _LevelTimes,
    admitted: _LevelTimes,
    capacity: float,
    utility: UtilityFunction,
    cleared: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row ``(B_hat, R_hat)`` flow-average utilities from the N and M tables.

    Both are flow-time averages — the dynamic counterpart of the
    paper's ``B(C) = sum Q(k) pi(C/k)`` with ``Q`` the size-biased
    census: a flow-average is a time average weighted by how many
    flows experience each instant.  Best-effort gives every one of
    the ``N`` present flows ``pi(C/N)``; under reservations only
    the ``M`` admitted flows score (``pi(C/M)`` each) while the
    ``N - M`` waiting rejected flows contribute zero utility but
    full flow-time, so ``R_hat`` is total admitted utility over
    total flow-time.  Lost-calls-cleared is the one mode whose
    rejected flows leave no flow-time trace (they vanish at
    arrival), so there ``cleared``, the in-window admitted-arrival
    fraction per row, supplies the rejected-score-zero weighting
    instead.  A row without flow-time scores 0.
    """
    census_mass, census_score = census.flow_time(capacity, utility)
    admitted_mass, admitted_score = admitted.flow_time(capacity, utility)
    with np.errstate(divide="ignore", invalid="ignore"):
        be = np.where(census_mass > 0.0, census_score / census_mass, 0.0)
        if cleared is None:
            return be, np.where(census_mass > 0.0, admitted_score / census_mass, 0.0)
        res = np.where(admitted_mass > 0.0, admitted_score / admitted_mass, 0.0)
    return be, cleared * res


@dataclass(frozen=True)
class PairedGapResult:
    """CRN-paired per-replication utility estimates and their gap."""

    best_effort: np.ndarray
    reservation: np.ndarray
    gap: np.ndarray
    level: float = 0.95

    def _stat(self, values: np.ndarray) -> Tuple[float, float]:
        stat = RunningStat()
        stat.push(values)
        return stat.mean, stat.ci_halfwidth(self.level)

    @property
    def gap_mean(self) -> float:
        """Mean simulated ``delta = R_hat - B_hat``."""
        return self._stat(self.gap)[0]

    @property
    def gap_ci(self) -> float:
        """CI half-width of the gap at ``level``."""
        return self._stat(self.gap)[1]

    def summary(self) -> dict:
        """Means and CI half-widths for all three estimates."""
        be_m, be_h = self._stat(self.best_effort)
        res_m, res_h = self._stat(self.reservation)
        gap_m, gap_h = self._stat(self.gap)
        return {
            "replications": int(len(self.gap)),
            "level": self.level,
            "best_effort": be_m,
            "best_effort_ci": be_h,
            "reservation": res_m,
            "reservation_ci": res_h,
            "gap": gap_m,
            "gap_ci": gap_h,
        }


def _check_counts(replications: int) -> None:
    """Refuse replication counts below one."""
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications!r}")


class EnsembleSimulator:
    """R-replication census twin of :class:`FlowSimulator`.

    Accepts the same (process, link, admission, retry, clearing)
    configuration; :meth:`run` executes R replications seeded from
    ``SeedSequence.spawn`` children and returns an
    :class:`EnsembleResult` (``engine == "vectorized"`` for the census
    walk).  Configurations outside the walk's reach run scalar
    per-replication over the identical streams, so results never
    depend on which engine executed them.
    """

    def __init__(
        self,
        process: DemandProcess,
        link: Link,
        admission: Optional[AdmissionPolicy] = None,
        *,
        retry_rate: float = 0.0,
        lost_calls_cleared: bool = False,
        block: int = DEFAULT_BLOCK,
    ):
        if retry_rate < 0.0:
            raise ValueError(f"retry_rate must be >= 0, got {retry_rate!r}")
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block!r}")
        self._process = process
        self._link = link
        self._admission = admission if admission is not None else AdmitAll()
        self._retry_rate = float(retry_rate)
        self._lost_calls_cleared = bool(lost_calls_cleared)
        self._block = int(block)
        if self._lost_calls_cleared and (
            retry_rate > 0.0 or self._admission.readmit_waiting
        ):
            raise ModelError(
                "lost_calls_cleared is mutually exclusive with retries "
                "and readmission — a cleared call is gone"
            )

    @property
    def link(self) -> Link:
        """The shared link."""
        return self._link

    @property
    def admission(self) -> AdmissionPolicy:
        """The admission policy in force."""
        return self._admission

    def vectorization_fallback(self) -> Optional[str]:
        """Why the census walk cannot run (None = it can).

        The walk reads rate tables built from a stateless demand
        process's vector rates, and needs threshold-shaped admission
        (``admits(m, C)`` equal to ``m < threshold(C)``) — true for the
        built-in policies, not checkable for arbitrary subclasses.
        """
        if self._process.is_stateful():
            return "stateful_process"
        if not getattr(self._process, "vector_rates", False):
            return "scalar_rates"
        if not isinstance(self._admission, (AdmitAll, ThresholdAdmission)):
            return "custom_admission"
        return None

    def _default_initial_census(self) -> int:
        mean = getattr(self._process, "mean_census", None)
        if mean is None:
            load = getattr(self._process, "load", None)
            mean = load.mean if load is not None else 0.0
        return int(round(float(mean)))

    def run(
        self,
        replications: int,
        horizon: float,
        *,
        warmup: float = 0.0,
        seed: Optional[int] = None,
        initial_census: Optional[int] = None,
        max_events: int = 20_000_000,
    ) -> EnsembleResult:
        """Run ``replications`` independent trajectories to ``horizon``.

        ``seed`` feeds ``SeedSequence.spawn``: replication ``r`` sees
        the stream of seed child ``r``.
        """
        _check_counts(replications)
        children = spawn_children(
            seed if seed is not None else np.random.SeedSequence(), replications
        )
        return self._run(
            children,
            horizon,
            warmup=warmup,
            initial_census=initial_census,
            max_events=max_events,
        )

    def run_until(
        self,
        statistic: Callable[[EnsembleResult], np.ndarray],
        horizon: float,
        *,
        ci_halfwidth: float,
        level: float = 0.95,
        warmup: float = 0.0,
        seed: Optional[int] = None,
        initial_census: Optional[int] = None,
        max_events: int = 20_000_000,
        batch_size: int = 16,
        min_replications: int = 8,
        max_replications: int = 1024,
    ) -> AdaptiveEstimate:
        """Grow the ensemble until the statistic's CI is tight enough.

        ``statistic`` maps an :class:`EnsembleResult` to one value per
        replication; batches of ``batch_size`` replications are run and
        folded into a Welford accumulator until the Student-t CI
        half-width at ``level`` drops to ``ci_halfwidth`` (with at
        least ``min_replications``) or ``max_replications`` is spent —
        the returned :class:`~repro.simulation.stats.AdaptiveEstimate`
        says which, via ``converged``.  Seeding is identical to
        :meth:`run`, so an adaptive run that stops at R replications
        saw exactly the ensemble ``run(R, ...)`` would produce.
        """
        if ci_halfwidth <= 0.0:
            raise ValueError(
                f"ci_halfwidth must be > 0, got {ci_halfwidth!r}"
            )
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size!r}")
        if not 2 <= min_replications <= max_replications:
            raise ValueError(
                "need 2 <= min_replications <= max_replications, got "
                f"{min_replications!r} vs {max_replications!r}"
            )
        _check_counts(max_replications)
        children = spawn_children(
            seed if seed is not None else np.random.SeedSequence(),
            max_replications,
        )
        stat = RunningStat()
        used = 0
        while used < max_replications:
            batch = min(batch_size, max_replications - used)
            try:
                result = self._run(
                    children[used : used + batch],
                    horizon,
                    warmup=warmup,
                    initial_census=initial_census,
                    max_events=max_events,
                )
            except SimulationBudgetError as exc:
                # completed batches are paid for: surface the Welford
                # state so equal-budget comparisons can still read it
                if used > 0:
                    partial = AdaptiveEstimate(
                        mean=stat.mean,
                        ci_halfwidth=stat.ci_halfwidth(level),
                        level=level,
                        replications=used,
                        converged=False,
                        target=ci_halfwidth,
                    )
                    obs.emit(
                        "ensemble.adaptive.partial",
                        replications=used,
                        ci_halfwidth=float(partial.ci_halfwidth),
                        target=float(ci_halfwidth),
                    )
                    raise SimulationBudgetError(
                        events=exc.events,
                        reached_t=exc.reached_t,
                        horizon=exc.horizon,
                        partial=partial,
                    ) from exc
                raise
            values = np.asarray(statistic(result), dtype=float).ravel()
            if len(values) != batch:
                raise ValueError(
                    "statistic must return one value per replication: got "
                    f"{len(values)} for a batch of {batch}"
                )
            stat.push(values)
            used += batch
            stop = (
                used >= min_replications
                and stat.ci_halfwidth(level) <= ci_halfwidth
            )
            # each stopping decision is journalled so an adaptive run's
            # precision trajectory can be audited after the fact
            obs.emit(
                "ensemble.adaptive.decision",
                replications=used,
                batch=batch,
                ci_halfwidth=float(stat.ci_halfwidth(level)),
                target=float(ci_halfwidth),
                stop=stop,
            )
            if stop:
                break
        halfwidth = stat.ci_halfwidth(level)
        converged = used >= min_replications and halfwidth <= ci_halfwidth
        if obs.enabled():
            obs.counter("ensemble.adaptive.runs").inc()
            if not converged:
                obs.counter("ensemble.adaptive.budget_exhausted").inc()
        return AdaptiveEstimate(
            mean=stat.mean,
            ci_halfwidth=halfwidth,
            level=level,
            replications=used,
            converged=converged,
            target=ci_halfwidth,
        )

    # -- internal machinery -------------------------------------------

    def _run(
        self,
        children: Sequence[np.random.SeedSequence],
        horizon: float,
        *,
        warmup: float,
        initial_census: Optional[int],
        max_events: int,
    ) -> EnsembleResult:
        if horizon <= 0.0:
            raise ValueError(f"horizon must be > 0, got {horizon!r}")
        if not 0.0 <= warmup < horizon:
            raise ValueError(
                f"warmup must be in [0, horizon), got {warmup!r} vs {horizon!r}"
            )
        fallback = self.vectorization_fallback()
        if fallback is not None:
            return self._run_scalar(
                children,
                horizon,
                warmup=warmup,
                initial_census=initial_census,
                max_events=max_events,
                reason=fallback,
            )
        return self._run_vectorized(
            children,
            horizon,
            warmup=warmup,
            initial_census=initial_census,
            max_events=max_events,
        )

    def _scalar_twin(self) -> FlowSimulator:
        return FlowSimulator(
            self._process,
            self._link,
            self._admission,
            retry_rate=self._retry_rate,
            lost_calls_cleared=self._lost_calls_cleared,
        )

    def _run_scalar(
        self,
        children: Sequence[np.random.SeedSequence],
        horizon: float,
        *,
        warmup: float,
        initial_census: Optional[int],
        max_events: int,
        reason: str,
    ) -> EnsembleResult:
        """Per-replication scalar runs over the ensemble's own streams."""
        if obs.enabled():
            obs.counter("ensemble.fallback.scalar").inc(len(children))
            obs.counter(f"ensemble.fallback.{reason}").inc(len(children))
        simulator = self._scalar_twin()
        trajectories: List[Trajectory] = []
        arrivals = np.zeros(len(children), dtype=np.int64)
        admissions = np.zeros(len(children), dtype=np.int64)
        for r, child in enumerate(children):
            stream = ReplicationStream(child, block=self._block)
            result = simulator.run(
                horizon,
                warmup=warmup,
                stream=stream,
                initial_census=initial_census,
                max_events=max_events,
            )
            trajectories.append(result.trajectory)
            flows = result.flows
            in_window = flows.arrival >= warmup
            on_arrival = (~np.isnan(flows.admit_time)) & (
                flows.admit_time == flows.arrival
            )
            arrivals[r] = int(in_window.sum())
            admissions[r] = int((in_window & on_arrival).sum())
        counts = np.array([len(tr.times) for tr in trajectories], dtype=np.int64)
        length = int(counts.max())
        times = np.full((len(children), length), horizon, dtype=float)
        census = np.zeros((len(children), length), dtype=float)
        admitted = np.zeros((len(children), length), dtype=float)
        for r, tr in enumerate(trajectories):
            c = counts[r]
            times[r, :c] = tr.times
            census[r, :c] = tr.census
            admitted[r, :c] = tr.admitted
        return EnsembleResult(
            times=times,
            census=census,
            admitted=admitted,
            counts=counts,
            arrivals=arrivals,
            admissions=admissions,
            capacity=self._link.capacity,
            warmup=warmup,
            horizon=horizon,
            engine="scalar",
            lost_calls_cleared=self._lost_calls_cleared,
        )

    def _run_vectorized(
        self,
        children: Sequence[np.random.SeedSequence],
        horizon: float,
        *,
        warmup: float,
        initial_census: Optional[int],
        max_events: int,
    ) -> EnsembleResult:
        """Walk each replication's census in turn; see the module docstring."""
        from repro.obs import resources

        reps = len(children)
        with obs.span(
            "ensemble.run_vectorized", replications=reps
        ), resources.profile_block("ensemble.run_vectorized", replications=reps):
            wall_start = time.perf_counter()
            if initial_census is None:
                initial_census = self._default_initial_census()
            walk = _CensusWalk(self, horizon, warmup, max_events, int(initial_census))
            result = walk.run(children)
            if obs.enabled():
                wall = time.perf_counter() - wall_start
                total_events = int(result.events.sum())
                obs.counter("ensemble.replications").inc(reps)
                obs.counter("ensemble.events").inc(total_events)
                if wall > 0.0:
                    obs.gauge("ensemble.event_rate").set(total_events / wall)
            return result


def _admitted_of_batch(threshold: float, admitted: int, size: int) -> int:
    """How many of ``size`` flows arriving together a threshold admits.

    Arrivals are admitted one at a time while ``M < threshold``, which
    collapses to ``clip(ceil(threshold - M), 0, size)``.
    """
    if math.isinf(threshold):
        return size
    return min(max(math.ceil(threshold - admitted), 0), size)


class _RateTables:
    """``birth``, ``total = birth + death`` and ``1/total`` by census.

    Built from the process's own ``arrival_rates``/``departure_rates``
    over ``arange(size)`` with the elementwise operations a scalar
    step applies, so a table entry equals the per-event rate calls bit
    for bit.  The walk steps with ``birth`` and ``total`` as Python
    lists and gathers ``totals``/``inverse`` by census as arrays.
    """

    def __init__(self, process: DemandProcess):
        self._process = process
        self.size = 0

    def cover(self, census: int) -> None:
        """Make every census ``0..census`` readable (doubling)."""
        if census < self.size:
            return
        ks = np.arange(2 * census + 1, dtype=np.int64)
        birth = np.broadcast_to(
            np.asarray(self._process.arrival_rates(ks), dtype=float), ks.shape
        )
        self.totals = birth + self._process.departure_rates(ks)
        with np.errstate(divide="ignore"):
            self.inverse = 1.0 / self.totals
        #: whether some census here has a zero (or NaN) total rate
        self.absorbing = not (self.totals > 0.0).all()
        self.birth = birth.tolist()
        self.total = self.totals.tolist()
        self.size = len(ks)


class _CensusWalk:
    """One replication at a time: the census stepped in plain Python.

    Each block of a replication's draws is walked event by event with
    the scalar engine's expressions on Python ints and floats; the
    block's event times then come from one cumulative sum of
    ``z * (1/total)`` started at the carried time and cut at the
    horizon (``add.accumulate`` adds in order, so each time equals the
    scalar ``t + z * (1/total)`` bit for bit).
    """

    def __init__(
        self,
        simulator: EnsembleSimulator,
        horizon: float,
        warmup: float,
        max_events: int,
        pop0: int,
    ):
        admission = simulator.admission
        capacity = simulator.link.capacity
        self.process = simulator._process
        self.admission = admission
        self.capacity = capacity
        self.threshold = float(admission.threshold(capacity))
        self.readmit = admission.readmit_waiting
        self.retry_rate = simulator._retry_rate
        self.cleared = simulator._lost_calls_cleared
        self.block = simulator._block
        layout = event_layout(self.process, admission)
        self.stride = layout["uniforms"]
        self.batch_slot = layout["batch_slot"]
        self.horizon = horizon
        self.warmup = warmup
        self.max_events = max_events
        self.pop0 = pop0
        # the t = 0 population arrives as one batch
        self.m0 = _admitted_of_batch(self.threshold, 0, pop0)
        self.n0 = self.m0 if self.cleared else pop0
        # a policy with a closed form keeps M == min(N, m_cap) when no
        # retries feed M back into the rates (clearing is refused with
        # readmission, and an infinite cap clears nothing), so a
        # unit-birth walk steps N alone and M is derived after assembly
        self.m_cap = (
            admission.admitted_cap(capacity)
            if self.retry_rate == 0.0
            and not self.cleared
            and self.batch_slot is None
            else None
        )
        self.tables = _RateTables(self.process)

    def run(self, children: Sequence[np.random.SeedSequence]) -> EnsembleResult:
        """Walk every child's stream, then pad the paths into one result."""
        paths = []
        for r, child in enumerate(children):
            stream = ReplicationStream(child, block=self.block)
            stream.bind(self.process, self.admission)
            if self.m_cap is None:
                paths.append(self.tracked(stream))
            else:
                paths.append(self.census_only(stream))
            obs.emit(
                "ensemble.replication",
                replication=r,
                replications=len(children),
                events=len(paths[-1][0]),
            )
        return self._assemble(paths)

    def _assemble(self, paths: list) -> EnsembleResult:
        reps = len(paths)
        counts = np.array([1 + len(path[0]) for path in paths], dtype=np.int64)
        if self.cleared:
            # cleared flows never enter N, so only the walk saw them
            arrivals = np.array([path[3] for path in paths], dtype=np.int64)
            admissions = np.array([path[4] for path in paths], dtype=np.int64)
        length = int(counts.max())
        times = np.full((reps, length), self.horizon, dtype=float)
        census = np.zeros((reps, length), dtype=float)
        admitted = np.zeros((reps, length), dtype=float)
        times[:, 0] = 0.0
        census[:, 0] = self.n0
        admitted[:, 0] = self.m0
        for r in range(reps):
            path, paths[r] = paths[r], None  # free each walk once copied
            end = counts[r]
            times[r, 1:end] = path[0]
            census[r, 1:end] = path[1]
            if self.m_cap is None:
                admitted[r, 1:end] = path[2]
        if self.m_cap is not None:
            admitted = np.minimum(census, self.m_cap)

        if not self.cleared:
            # arrivals are exactly the census increments at birth
            # events, so the window counters fall out of the paths
            d_n = np.diff(census, axis=1)
            d_m = np.diff(admitted, axis=1)
            births = (d_n > 0) & (times[:, 1:] >= self.warmup)
            arrivals = (d_n * births).sum(axis=1).astype(np.int64)
            admissions = (d_m * births).sum(axis=1).astype(np.int64)
        if self.warmup == 0.0:
            arrivals = arrivals + self.pop0
            admissions = admissions + self.m0
        return EnsembleResult(
            times=times,
            census=census,
            admitted=admitted,
            counts=counts,
            arrivals=arrivals,
            admissions=admissions,
            capacity=self.capacity,
            warmup=self.warmup,
            horizon=self.horizon,
            engine="vectorized",
            lost_calls_cleared=self.cleared,
        )

    def _times(self, exp: np.ndarray, inverse: np.ndarray, t: float, done: int):
        """Event times of the walked steps before the horizon.

        ``t`` is the carried time and ``done`` the events already taken,
        against ``max_events``.
        """
        times = exp[: len(inverse)] * inverse
        if len(times):
            times[0] += t
        times = times.cumsum()
        kept = int(times.searchsorted(self.horizon))
        if done + kept > self.max_events:
            raise SimulationBudgetError(
                events=self.max_events,
                reached_t=float(times[self.max_events - done]),
                horizon=self.horizon,
            )
        return times[:kept]

    @staticmethod
    def _absorbed(census: int) -> ModelError:
        return ModelError(
            f"demand process is absorbed at census {int(census)} "
            f"(zero total rate) — check the process parameters"
        )

    def census_only(self, stream: ReplicationStream):
        """``(times, census)`` of a unit-birth walk of ``N`` alone."""
        tables, block, stride = self.tables, self.block, self.stride
        n, t, done = self.n0, 0.0, 0
        times: List[np.ndarray] = []
        levels: List[np.ndarray] = []
        while True:
            exp, uni = stream.next_block()
            # a unit step moves the census by at most one
            tables.cover(n + block)
            birth, total = tables.birth, tables.total
            path = [n]
            step = path.append
            for u in uni[::stride].tolist():
                # past a zero-total state the path is garbage the cut
                # below discards; it stays within n +- block, which the
                # tables cover (a negative index wraps)
                if u * total[n] < birth[n]:
                    n += 1
                else:
                    n -= 1
                step(n)
            path = np.fromiter(path, dtype=np.int64, count=block + 1)
            before = path[:-1]
            steps = block
            if tables.absorbing:
                live = tables.totals[before] > 0.0  # False also for NaN
                if not live.all():
                    steps = int(live.argmin())
            stamps = self._times(exp, tables.inverse[before[:steps]], t, done)
            kept = len(stamps)
            times.append(stamps)
            levels.append(path[1 : kept + 1])
            done += kept
            if kept < steps:
                return np.concatenate(times), np.concatenate(levels)
            if steps < block:
                raise self._absorbed(path[steps])
            t = stamps[-1]

    def tracked(self, stream: ReplicationStream):
        """``(times, census, admitted, arrivals, admissions)`` of a walk
        that carries ``M`` too.

        For finite thresholds without readmission, retries, batch
        births and lost-calls clearing.  The last two are the window
        counters of a cleared run (0 otherwise), counted here since
        cleared flows never enter ``N``.
        """
        tables, block, stride = self.tables, self.block, self.stride
        threshold, readmit = self.threshold, self.readmit
        retry, cleared = self.retry_rate, self.cleared
        n, m, t, done = self.n0, self.m0, 0.0, 0
        arrived = taken = 0
        times: List[np.ndarray] = []
        levels: List[np.ndarray] = []
        admitted: List[np.ndarray] = []
        unit = [1] * block
        while True:
            exp, uni = stream.next_block()
            tables.cover(n + block)
            birth, total = tables.birth, tables.total
            slots = uni.reshape(block, stride)
            sizes = (
                unit
                if self.batch_slot is None
                else self.process.batches_from_uniform(
                    slots[:, self.batch_slot]
                ).tolist()
            )
            totals: List[float] = []
            ns: List[int] = []
            ms: List[int] = []
            births = []
            for u, v, size in zip(
                slots[:, 0].tolist(), slots[:, 1].tolist(), sizes
            ):
                rate = total[n]
                tot = rate + retry * (n - m)
                if not tot > 0.0:
                    break
                totals.append(tot)
                draw = u * tot
                if draw >= rate:
                    # a waiting flow retries
                    if m < threshold:
                        m += 1
                elif draw < birth[n]:
                    if size == 1:
                        take = 1 if m < threshold else 0
                    else:
                        take = _admitted_of_batch(threshold, m, size)
                    n += take if cleared else size
                    m += take
                    if cleared:
                        births.append((len(ns), size, take))
                    if n >= tables.size:
                        # a batch may jump past the tables
                        tables.cover(n + block)
                        birth, total = tables.birth, tables.total
                else:
                    # the departing flow is uniform over the census,
                    # admitted iff its index lands below M
                    pick = int(v * n)
                    if pick >= n:
                        pick = n - 1
                    n -= 1
                    if pick < m:
                        m -= 1
                        if readmit and n > m:
                            m += 1
                ns.append(n)
                ms.append(m)
            steps = len(totals)
            stamps = self._times(exp, 1.0 / np.array(totals), t, done)
            kept = len(stamps)
            times.append(stamps)
            levels.append(np.array(ns[:kept], dtype=np.int64))
            admitted.append(np.array(ms[:kept], dtype=np.int64))
            for i, size, take in births:
                if i < kept and stamps[i] >= self.warmup:
                    arrived += size
                    taken += take
            done += kept
            if kept < steps:
                break
            if steps < block:
                raise self._absorbed(n)
            t = stamps[-1]
        return (
            np.concatenate(times),
            np.concatenate(levels),
            np.concatenate(admitted),
            arrived,
            taken,
        )


def paired_gap(
    process: DemandProcess,
    link: Link,
    utility: UtilityFunction,
    replications: int,
    horizon: float,
    *,
    warmup: float = 0.0,
    seed: Optional[int] = None,
    reservation: Optional[AdmissionPolicy] = None,
    initial_census: Optional[int] = None,
    max_events: int = 20_000_000,
    block: int = DEFAULT_BLOCK,
    level: float = 0.95,
) -> PairedGapResult:
    """CRN-paired estimate of the simulated ``delta(C) = R(C) - B(C)``.

    Scores a best-effort arm and a reservation arm (default the paper's
    ``ThresholdAdmission.from_utility(utility)`` with readmission, so
    that the admitted count is exactly ``min(N, k_max)`` as the static
    model assumes) on the *same* census trajectories.  Without retries
    or lost-calls clearing the census dynamics depend only on ``N``,
    and the stream layout ignores admission, so ``N(t)`` is the same
    under every policy: the per-replication gap ``R_hat_r - B_hat_r``
    carries only the admission-accounting difference, with far lower
    variance than independent seeding would give.

    The census is therefore simulated once, by the reservation
    ensemble, and ``B_hat`` (every present flow scores, so it reads
    ``N`` alone) and ``R_hat`` are both read off that run.  No
    admission policy can move ``B_hat``, so the best-effort arm takes
    none.
    """
    _check_counts(replications)
    res_policy = (
        reservation
        if reservation is not None
        else ThresholdAdmission.from_utility(utility, readmit_waiting=True)
    )
    children = spawn_children(
        seed if seed is not None else np.random.SeedSequence(), replications
    )
    run = EnsembleSimulator(process, link, res_policy, block=block)._run(
        children,
        horizon,
        warmup=warmup,
        initial_census=initial_census,
        max_events=max_events,
    )
    be_values, res_values = run.utility_estimates(utility)
    return PairedGapResult(
        best_effort=be_values,
        reservation=res_values,
        gap=res_values - be_values,
        level=level,
    )
