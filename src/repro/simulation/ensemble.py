"""Ensemble Monte Carlo engine: R replications as one vectorized run.

The scalar :class:`~repro.simulation.simulator.FlowSimulator` executes
one Gillespie trajectory with per-event Python bookkeeping; answering a
statistical question ("is the simulated ``delta`` gap within the CI of
the analytic one?") needs *many* trajectories with controlled error.
This module runs R independent replications as a single numpy-batched
computation:

- **Vectorized stepping.**  Waiting times, event types and census
  updates for every active replication are computed as array
  operations per step.  Because the census-level state ``(N, M)`` is
  two integers, the full scalar event semantics (threshold admission,
  batch arrivals, departures with promotion, retries,
  lost-calls-cleared) collapse to closed-form array updates.
- **Census-only stepping.**  Without retries the census dynamics
  ignore admission, and a policy with a closed form
  (:meth:`~repro.simulation.admission.AdmissionPolicy.admitted_cap`:
  ``M = N`` for admit-all or an infinite threshold,
  ``M = min(N, ceil(threshold))`` for a readmitting threshold) needs
  no ``M`` in the loop: only ``N`` is stepped and ``M`` is derived
  from it after assembly.  Finite non-readmitting thresholds, retries
  and custom policies keep tracking ``M`` in the loop.
- **Compressed active sets.**  Replications that hit their horizon are
  compacted out, so late steps only pay for the replications still
  running.
- **Era recording.**  Trajectories land in preallocated step-major
  ndarray blocks (grow-by-doubling), replacing the scalar engine's
  per-event ``list.append``; blocks are assembled into padded
  ``(R, L)`` arrays at the end.
- **Exact parity.**  Draws come from the same per-replication
  :mod:`~repro.simulation.streams` protocol the scalar engine can
  replay, so an ensemble replication is event-for-event identical to
  ``FlowSimulator.run(stream=...)`` on the same seed child — the
  parity oracle ``benchmarks/bench_ensemble.py`` enforces.
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

Configurations the vectorized engine cannot express (stateful demand
processes, custom admission policies) fall back to per-replication
scalar runs over the same streams — identical results, metered under
``ensemble.fallback.*``.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
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
    BatchedStreams,
    ReplicationStream,
    spawn_children,
)
from repro.utility.base import UtilityFunction

#: Hard ceiling on an era buffer's step capacity; eras double up to
#: here, then roll over into fresh blocks of this size.
_MAX_ERA_STEPS = 1 << 15


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

    def _window_weights(self) -> np.ndarray:
        """Per-segment time weights clipped to ``[warmup, horizon]``."""
        ends = np.concatenate(
            [
                self.times[:, 1:],
                np.full((self.replications, 1), self.horizon),
            ],
            axis=1,
        )
        clipped = np.minimum(ends, self.horizon) - np.maximum(
            self.times, self.warmup
        )
        return np.maximum(0.0, clipped)

    def mean_census(self) -> np.ndarray:
        """Per-replication time-average census over the window."""
        w = self._window_weights()
        mass = w.sum(axis=1)
        if not (mass > 0.0).all():
            raise ValueError(
                "a replication has no trajectory mass in the measurement "
                f"window [warmup={self.warmup!r}, horizon={self.horizon!r}]"
            )
        return (w * self.census).sum(axis=1) / mass

    def census_distribution(self) -> Tuple[np.ndarray, np.ndarray]:
        """Pooled time-weighted census pmf across all replications."""
        w = self._window_weights().ravel()
        levels = self.census.ravel()
        keep = w > 0.0
        w, levels = w[keep], levels[keep]
        if w.size == 0:
            raise ValueError("no trajectory mass in the measurement window")
        values, inverse = np.unique(levels, return_inverse=True)
        probs = np.bincount(inverse, weights=w, minlength=len(values))
        return values, probs / probs.sum()

    def utility_estimates(
        self, utility: UtilityFunction
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-replication ``(B_hat, R_hat)`` flow-average utilities.

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
        arrival), so there the in-window admitted-arrival fraction
        supplies the rejected-score-zero weighting instead.
        """
        w = self._window_weights()
        be = _size_biased_utility(
            self.census, w, self.capacity, utility
        )
        if self.lost_calls_cleared:
            frac = np.where(
                self.arrivals > 0,
                self.admissions / np.maximum(self.arrivals, 1),
                1.0,
            )
            return be, frac * _size_biased_utility(
                self.admitted, w, self.capacity, utility
            )
        shares = np.where(
            self.admitted > 0, self.capacity / np.maximum(self.admitted, 1.0), 0.0
        )
        scores = np.where(self.admitted > 0, utility(shares), 0.0)
        mass = (w * self.census).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            res = (w * self.admitted * scores).sum(axis=1) / mass
        return be, np.where(mass > 0.0, res, 0.0)


def _size_biased_utility(
    levels: np.ndarray,
    weights: np.ndarray,
    capacity: float,
    utility: UtilityFunction,
) -> np.ndarray:
    """``sum(w * n * pi(C/n)) / sum(w * n)`` per replication row."""
    shares = np.where(levels > 0, capacity / np.maximum(levels, 1.0), 0.0)
    scores = np.where(levels > 0, utility(shares), 0.0)
    mass = (weights * levels).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (weights * levels * scores).sum(axis=1) / mass
    return np.where(mass > 0.0, out, 0.0)


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


def _check_counts(replications: int, jobs: int) -> None:
    """Refuse replication and worker counts below one."""
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs!r}")


class EnsembleSimulator:
    """Vectorized R-replication twin of :class:`FlowSimulator`.

    Accepts the same (process, link, admission, retry, clearing)
    configuration; :meth:`run` executes R replications seeded from
    ``SeedSequence.spawn`` children and returns an
    :class:`EnsembleResult`.  Configurations outside the vectorized
    engine's reach run scalar per-replication over the identical
    streams, so results never depend on which engine executed them.
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
        """Why the vectorized engine cannot run (None = it can).

        The array engine needs vectorized rates from a stateless demand
        process and threshold-shaped admission (``admits(m, C)`` equal
        to ``m < threshold(C)``) — true for the built-in policies, not
        checkable for arbitrary subclasses.
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
        jobs: int = 1,
    ) -> EnsembleResult:
        """Run ``replications`` independent trajectories to ``horizon``.

        ``seed`` feeds ``SeedSequence.spawn``: replication ``r`` sees
        the stream of seed child ``r`` regardless of ``jobs``, so the
        result is byte-identical whether computed inline or fanned out
        over worker processes.
        """
        _check_counts(replications, jobs)
        children = spawn_children(
            seed if seed is not None else np.random.SeedSequence(), replications
        )
        return self._run(
            children,
            horizon,
            warmup=warmup,
            initial_census=initial_census,
            max_events=max_events,
            jobs=jobs,
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
        jobs: int = 1,
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
        _check_counts(max_replications, jobs)
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
                    jobs=jobs,
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
        jobs: int = 1,
    ) -> EnsembleResult:
        if horizon <= 0.0:
            raise ValueError(f"horizon must be > 0, got {horizon!r}")
        if not 0.0 <= warmup < horizon:
            raise ValueError(
                f"warmup must be in [0, horizon), got {warmup!r} vs {horizon!r}"
            )
        if jobs > 1 and len(children) > 1:
            return self._run_pooled(
                children,
                horizon,
                warmup=warmup,
                initial_census=initial_census,
                max_events=max_events,
                jobs=jobs,
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

    def _run_pooled(
        self,
        children: Sequence[np.random.SeedSequence],
        horizon: float,
        *,
        warmup: float,
        initial_census: Optional[int],
        max_events: int,
        jobs: int,
    ) -> EnsembleResult:
        """Fan replications over worker processes, chunk-deterministic.

        Chunks are merged in submission order (never completion order)
        and each worker isolates its own obs sinks and ships a snapshot
        home — the :func:`repro.runner.executor.run_many` discipline —
        so ``jobs > 1`` reproduces ``jobs = 1`` byte for byte.
        """
        observe = obs.enabled()
        n_chunks = min(jobs, len(children))
        bounds = np.linspace(0, len(children), n_chunks + 1).astype(int)
        wall_start = time.perf_counter()
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(
                    _ensemble_worker,
                    self,
                    list(children[lo:hi]),
                    horizon,
                    warmup,
                    initial_census,
                    max_events,
                    observe,
                )
                for lo, hi in zip(bounds[:-1], bounds[1:])
                if hi > lo
            ]
            raws = [f.result() for f in futures]
        parts: List[EnsembleResult] = [raw["result"] for raw in raws]
        if observe and obs.enabled():
            for raw in raws:
                if raw.get("metrics"):
                    obs.registry().absorb_snapshot(raw["metrics"])
            wall = time.perf_counter() - wall_start
            total_events = int(sum(p.events.sum() for p in parts))
            if wall > 0.0:
                obs.gauge("ensemble.pooled_event_rate").set(total_events / wall)
        return _merge_results(parts)

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
        """Span- and resource-profiled wrapper of the batched loop."""
        from repro.obs import resources

        with obs.span(
            "ensemble.run_vectorized", replications=len(children)
        ), resources.profile_block(
            "ensemble.run_vectorized", replications=len(children)
        ):
            return self._run_vectorized_inner(
                children,
                horizon,
                warmup=warmup,
                initial_census=initial_census,
                max_events=max_events,
            )

    def _run_vectorized_inner(
        self,
        children: Sequence[np.random.SeedSequence],
        horizon: float,
        *,
        warmup: float,
        initial_census: Optional[int],
        max_events: int,
    ) -> EnsembleResult:
        """The batched Gillespie loop; see the module docstring."""
        process = self._process
        capacity = self._link.capacity
        thr = float(self._admission.threshold(capacity))
        retry_rate = self._retry_rate
        readmit = self._admission.readmit_waiting
        cleared = self._lost_calls_cleared
        reps = len(children)
        wall_start = time.perf_counter()

        streams = BatchedStreams(
            children, process, self._admission, block=self._block
        )
        uniforms = streams.uniforms_per_event
        batch_slot = streams.batch_slot

        if initial_census is None:
            initial_census = self._default_initial_census()
        pop0 = int(initial_census)
        # sequential admission at t = 0 collapses to a closed form:
        # admits-while-below-threshold accepts ceil(thr) flows at most
        adm0 = pop0 if math.isinf(thr) else min(pop0, max(0, int(math.ceil(thr))))
        n0 = adm0 if cleared else pop0

        # compacted per-active-replication state
        rows = np.arange(reps)
        t = np.zeros(reps)
        census = np.full(reps, n0, dtype=np.int64)
        admitted = np.full(reps, adm0, dtype=np.int64)

        counts = np.ones(reps, dtype=np.int64)  # the t=0 record
        # lost-calls-cleared is the one mode whose arrival counts are
        # not recoverable from the census afterwards (cleared flows
        # never enter N), so only it pays for in-loop counters
        arrivals_win = np.zeros(reps, dtype=np.int64)
        admits_win = np.zeros(reps, dtype=np.int64)
        no_threshold = math.isinf(thr)
        # a policy with a closed form keeps M == min(N, m_cap) when no
        # retries feed M back into the rates (clearing is refused with
        # readmission, and an infinite cap clears nothing), so the loop
        # steps N alone and M is derived after assembly; everything
        # else tracks M in the loop
        m_cap = self._admission.admitted_cap(capacity) if retry_rate == 0.0 else None
        track_admitted = m_cap is None
        general_births = cleared or (batch_slot is not None)
        # census-only unit steps read their rates from per-run tables
        # indexed by census (see _rate_tables); rebuilt at block refills
        tabled = not (track_admitted or general_births or process.is_stateful())
        birth_tab = total_tab = inv_tab = np.empty(0)

        # era bookkeeping: step-major blocks, one column per active row
        eras: List[tuple] = []
        cap = self._block
        t_buf = np.empty((cap, reps))
        n_buf = np.empty((cap, reps), dtype=np.int64)
        m_buf = np.empty((cap, reps), dtype=np.int64)
        step = 0  # steps recorded in the current era
        offset = 1  # record count shared by every active row at era start
        steps_total = 0

        def close_era() -> None:
            nonlocal step, offset
            if step > 0:
                eras.append((rows, offset, t_buf[:step], n_buf[:step], m_buf[:step]))
                offset += step
                step = 0
                # replication-block progress marker: one event per era,
                # so a long run's journal shows the live/active-row
                # decay without paying per-event costs
                obs.emit(
                    "ensemble.era",
                    active=int(rows.size),
                    replications=reps,
                    records=int(offset),
                    steps_total=int(steps_total),
                )

        exp_blk = streams.exp
        uni_blk = streams.uni
        with np.errstate(divide="ignore", invalid="ignore"):
            while rows.size > 0:
                if streams.ptr >= streams.block:
                    streams.refill()
                    exp_blk = streams.exp
                    uni_blk = streams.uni
                    if tabled:
                        # unit steps move the census by at most one per
                        # step, so it stays within census.max() + block
                        # until the next refill
                        reach = int(census.max()) + streams.block
                        if reach >= total_tab.size:
                            birth_tab, total_tab, inv_tab = _rate_tables(
                                process, 2 * reach
                            )
                pointer = streams.ptr
                streams.ptr = pointer + 1

                if tabled:
                    birth = birth_tab[census]
                    total = total_tab[census]
                    inverse = inv_tab[census]
                else:
                    birth = process.arrival_rates(census)
                    death = process.departure_rates(census)
                    if retry_rate > 0.0:
                        total = birth + death + retry_rate * (census - admitted)
                    else:
                        total = birth + death
                    inverse = 1.0 / total
                t_new = t + exp_blk[:, pointer] * inverse

                live = t_new < horizon  # False also for inf and NaN
                if not live.all():
                    finished = ~live
                    if not np.all(np.asarray(total)[finished] > 0.0):
                        level = census[finished][
                            ~(np.asarray(total)[finished] > 0.0)
                        ][0]
                        raise ModelError(
                            f"demand process is absorbed at census {int(level)} "
                            f"(zero total rate) — check the process parameters"
                        )
                    close_era()
                    counts[rows[finished]] = offset
                    rows = rows[live]
                    if rows.size == 0:
                        break
                    streams.compact(live)
                    exp_blk = streams.exp
                    uni_blk = streams.uni
                    t = t_new[live]
                    census = census[live]
                    admitted = admitted[live]
                    if np.ndim(birth) > 0:
                        birth = birth[live]
                    if retry_rate > 0.0:
                        death = death[live]
                    total = total[live]
                    t_buf = np.empty((cap, rows.size))
                    n_buf = np.empty((cap, rows.size), dtype=np.int64)
                    m_buf = np.empty((cap, rows.size), dtype=np.int64)
                else:
                    t = t_new

                steps_total += 1
                if steps_total > max_events:
                    raise SimulationBudgetError(
                        events=max_events,
                        reached_t=float(t.min()),
                        horizon=horizon,
                    )

                base = pointer * uniforms
                draw = uni_blk[:, base] * total
                is_birth = draw < birth
                if retry_rate > 0.0:
                    is_retry = draw >= birth + death
                    is_death = ~(is_birth | is_retry)
                else:
                    is_death = ~is_birth

                if general_births:
                    # births: sequential threshold admission of a batch
                    # collapses to clip(ceil(thr - M), 0, batch)
                    if batch_slot is not None:
                        batch = process.batches_from_uniform(
                            uni_blk[:, base + batch_slot]
                        )
                    else:
                        batch = 1
                    # a readmitting threshold is never cleared and its M
                    # is untracked, so only tracked runs need n_admit
                    if no_threshold:
                        n_admit = batch
                    elif track_admitted:
                        n_admit = np.minimum(
                            np.maximum(np.ceil(thr - admitted), 0.0), batch
                        ).astype(np.int64)
                    census = census + np.where(
                        is_birth, n_admit if cleared else batch, 0
                    )
                    if track_admitted:
                        admitted = admitted + np.where(is_birth, n_admit, 0)
                elif track_admitted:
                    # unit batch: one arrival admits iff M < thr
                    census = census + is_birth
                    admitted = admitted + (is_birth & (admitted < thr))
                else:
                    # census-only step: M is a function of N
                    census = census + is_birth - is_death

                if track_admitted:
                    # deaths: the departing flow is uniform over the
                    # census, admitted iff its index lands below M
                    pick = np.minimum(
                        (uni_blk[:, base + 1] * census).astype(np.int64),
                        census - 1,
                    )
                    dep_admitted = is_death & (pick < admitted)
                    census = census - is_death
                    admitted = admitted - dep_admitted
                    if readmit:
                        admitted = admitted + (
                            dep_admitted & (census - admitted > 0)
                        )
                    if retry_rate > 0.0:
                        admitted = admitted + (is_retry & (admitted < thr))
                    m_buf[step] = admitted
                elif general_births:
                    census = census - is_death

                if cleared:
                    in_window = is_birth & (t >= warmup)
                    arrivals_win[rows] += np.where(in_window, batch, 0)
                    admits_win[rows] += np.where(in_window, n_admit, 0)

                t_buf[step] = t
                n_buf[step] = census
                step += 1
                if step == cap:
                    close_era()
                    cap = min(cap * 2, _MAX_ERA_STEPS)
                    t_buf = np.empty((cap, rows.size))
                    n_buf = np.empty((cap, rows.size), dtype=np.int64)
                    m_buf = np.empty((cap, rows.size), dtype=np.int64)

        # assemble padded (R, L) arrays; every era's columns share one
        # offset, so each era lands in a single sliced fancy assignment
        length = int(counts.max())
        times = np.full((reps, length), horizon, dtype=float)
        census_out = np.zeros((reps, length), dtype=float)
        admitted_out = np.zeros((reps, length), dtype=float)
        times[:, 0] = 0.0
        census_out[:, 0] = n0
        admitted_out[:, 0] = adm0
        for era_rows, era_off, tb, nb, mb in eras:
            span = tb.shape[0]
            times[era_rows, era_off : era_off + span] = tb.T
            census_out[era_rows, era_off : era_off + span] = nb.T
            if track_admitted:
                admitted_out[era_rows, era_off : era_off + span] = mb.T
        if not track_admitted:
            admitted_out = np.minimum(census_out, m_cap)

        if not cleared:
            # arrivals are exactly the census increments at birth events
            # (only clearing discards flows before they enter N), so the
            # window counters fall out of the assembled trajectories
            d_n = np.diff(census_out, axis=1)
            d_m = np.diff(admitted_out, axis=1)
            births = (d_n > 0) & (times[:, 1:] >= warmup)
            arrivals_win = (d_n * births).sum(axis=1).astype(np.int64)
            admits_win = (d_m * births).sum(axis=1).astype(np.int64)
        if warmup == 0.0:
            arrivals_win = arrivals_win + pop0
            admits_win = admits_win + adm0

        if obs.enabled():
            wall = time.perf_counter() - wall_start
            total_events = int(counts.sum() - reps)
            obs.counter("ensemble.replications").inc(reps)
            obs.counter("ensemble.events").inc(total_events)
            if wall > 0.0:
                obs.gauge("ensemble.event_rate").set(total_events / wall)

        return EnsembleResult(
            times=times,
            census=census_out,
            admitted=admitted_out,
            counts=counts,
            arrivals=arrivals_win,
            admissions=admits_win,
            capacity=capacity,
            warmup=warmup,
            horizon=horizon,
            engine="vectorized",
            lost_calls_cleared=cleared,
        )


def _rate_tables(process: DemandProcess, top: int) -> Tuple[np.ndarray, ...]:
    """``(birth, total, 1/total)`` at every census ``0..top``.

    The process's own ``arrival_rates``/``departure_rates`` over
    ``arange(top + 1)``, combined by the same elementwise operations a
    step applies to their per-step values, so a gather from these
    tables equals the per-step rate calls bit for bit.
    """
    ks = np.arange(top + 1, dtype=np.int64)
    birth = np.broadcast_to(
        np.asarray(process.arrival_rates(ks), dtype=float), ks.shape
    ).copy()
    total = birth + process.departure_rates(ks)
    with np.errstate(divide="ignore"):
        return birth, total, 1.0 / total


def _merge_results(parts: Sequence[EnsembleResult]) -> EnsembleResult:
    """Concatenate chunk results, re-padding to the widest chunk."""
    if len(parts) == 1:
        return parts[0]
    first = parts[0]
    length = max(p.times.shape[1] for p in parts)

    def pad(p: EnsembleResult, source: np.ndarray, fill: float) -> np.ndarray:
        out = np.full((source.shape[0], length), fill, dtype=float)
        out[:, : source.shape[1]] = source
        return out

    return EnsembleResult(
        times=np.concatenate([pad(p, p.times, p.horizon) for p in parts]),
        census=np.concatenate([pad(p, p.census, 0.0) for p in parts]),
        admitted=np.concatenate([pad(p, p.admitted, 0.0) for p in parts]),
        counts=np.concatenate([p.counts for p in parts]),
        arrivals=np.concatenate([p.arrivals for p in parts]),
        admissions=np.concatenate([p.admissions for p in parts]),
        capacity=first.capacity,
        warmup=first.warmup,
        horizon=first.horizon,
        engine=first.engine,
        lost_calls_cleared=first.lost_calls_cleared,
    )


def _ensemble_worker(
    simulator: EnsembleSimulator,
    children: List[np.random.SeedSequence],
    horizon: float,
    warmup: float,
    initial_census: Optional[int],
    max_events: int,
    observe: bool,
) -> dict:
    """Worker-process entry point: isolate obs, run a chunk, snapshot."""
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracing import Tracer

    if observe:
        obs.enable(MetricsRegistry(), Tracer())
    else:
        obs.disable()
    result = simulator._run(
        children,
        horizon,
        warmup=warmup,
        initial_census=initial_census,
        max_events=max_events,
        jobs=1,
    )
    out: dict = {"result": result}
    if observe:
        out["metrics"] = obs.snapshot()
        obs.disable()
    return out


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
    jobs: int = 1,
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
    _check_counts(replications, jobs)
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
        jobs=jobs,
    )
    be_values, res_values = run.utility_estimates(utility)
    return PairedGapResult(
        best_effort=be_values,
        reservation=res_values,
        gap=res_values - be_values,
        level=level,
    )
