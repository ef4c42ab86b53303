"""Trace replay: drive the ensemble estimators from streamed flows.

The PR-4 ensemble engine estimates ``B_hat``/``R_hat`` from
piecewise-constant census trajectories; an operator's trace *is* such
a trajectory, just too large to hold.  This module closes the gap at
constant memory:

1. **Occupancy sweep** (:func:`sweep_occupancy`).  One time-ordered
   pass over an arrival-sorted stream folds the exact census
   trajectory into per-window time-in-state histograms
   ``occupancy[window, census_level]`` — the sufficient statistic for
   every flow-time average the estimators compute.  Chunks are folded
   in slabs of at least as many flows as are pending, so chunks
   smaller than that do not multiply the folds.  Pending departures
   live in one sorted array bounded by the peak census plus a chunk,
   never by the flow count; every positive-duration segment is
   accumulated in global time order, so the result is *byte-identical
   for any chunk size*.
2. **CRN-paired evaluation** (:meth:`TraceOccupancy.evaluate`).  The
   histogram *is* the ensemble engine's time-at-level table, one row
   per window, and is scored by the engine's own flow-time kernel.
   The admitted table folds it at the paper's reservation rule
   ``M = min(N, ceil(k_max))`` — the closed form
   ``ThresholdAdmission.admitted_cap`` states for the readmitting
   policy, the same one the ensemble engine applies.  Best-effort
   (``M = N``) reads the census alone, so both architectures are
   scored on the one trace trajectory, the strongest possible
   common-random-numbers pairing, and a
   :class:`~repro.simulation.ensemble.PairedGapResult` carries the
   Welford/Student-t confidence intervals over windows.

Windows double as replications: R disjoint spans of ``[warmup,
horizon]`` give R weakly dependent estimates whose spread prices the
CI — the block-resampling view of a single long trajectory.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import ModelError
from repro.simulation.admission import ThresholdAdmission
from repro.simulation.ensemble import (
    PairedGapResult,
    _flow_time_utilities,
    _LevelTimes,
)
from repro.traces.format import FlowTrace
from repro.traces.stream import DEFAULT_CHUNK_FLOWS, TraceStream, _slabs, stream_trace
from repro.utility.base import UtilityFunction

#: Default number of measurement windows (each scored as one replication).
DEFAULT_WINDOWS = 16

#: Most measurement windows a sweep accepts.  The occupancy table has a
#: row per window as wide as the census range, so a larger count is
#: refused before anything is allocated.
MAX_WINDOWS = 1024


@dataclass(frozen=True)
class ReplayResult:
    """One capacity's CRN-paired replay verdict plus trace statistics."""

    capacity: float
    threshold: float
    windows: int
    warmup: float
    horizon: float
    flows: int
    events: int
    max_pending: int
    census_values: np.ndarray
    census_pmf: np.ndarray
    mean_census: float
    paired: PairedGapResult

    def summary(self) -> dict:
        """JSON-ready headline numbers (the provenance-frozen surface)."""
        out = {
            key: (float(value) if isinstance(value, (int, float, np.floating)) else value)
            for key, value in self.paired.summary().items()
        }
        out["replications"] = int(self.paired.gap.shape[0])
        out.update(
            capacity=float(self.capacity),
            threshold=float(self.threshold),
            windows=int(self.windows),
            warmup=float(self.warmup),
            horizon=float(self.horizon),
            flows=int(self.flows),
            events=int(self.events),
            mean_census=float(self.mean_census),
        )
        return out


@dataclass(frozen=True)
class TraceOccupancy:
    """Per-window time-in-state histograms: the replay's sufficient statistic.

    ``occupancy[w, n]`` is the time within window ``w`` the census
    spent at level ``n``; rows sum to the window widths exactly (up to
    float round-off), columns span ``0..max_census``.
    """

    edges: np.ndarray
    occupancy: np.ndarray
    horizon: float
    flows: int
    events: int
    max_pending: int

    @property
    def warmup(self) -> float:
        return float(self.edges[0])

    @property
    def windows(self) -> int:
        return int(len(self.edges) - 1)

    @property
    def max_census(self) -> int:
        """Highest census level with positive dwell time (0 if none)."""
        mass = np.flatnonzero(self.occupancy.sum(axis=0) > 0.0)
        return int(mass.max()) if len(mass) else 0

    def _table(self) -> _LevelTimes:
        """The histogram as the ensemble's time-at-level table, one row per window."""
        return _LevelTimes(0, self.occupancy)

    def census_distribution(self) -> Tuple[np.ndarray, np.ndarray]:
        """Pooled time-weighted census pmf over ``[warmup, horizon]``."""
        try:
            return self._table().pmf()
        except ValueError as exc:
            raise ModelError(str(exc)) from None

    def mean_census(self) -> float:
        """Time-average census over the measurement window."""
        return float(np.dot(*self.census_distribution()))

    def evaluate(
        self,
        utility: UtilityFunction,
        capacity: float,
        *,
        level: float = 0.95,
    ) -> ReplayResult:
        """CRN-paired best-effort vs reservation verdict at ``capacity``.

        Both architectures are scored on the *same* per-window census
        histograms: best-effort admits everyone (``M = N``, which
        ``B_hat`` reads off the census table alone), and reservations
        follow the readmitting threshold policy's closed form
        ``M = min(N, ceil(k_max))``
        (:meth:`ThresholdAdmission.admitted_cap`), the rule the
        ensemble engine applies to an admission-blind census, so the
        admitted table is the census table folded at that cap.
        """
        if not 0.0 < capacity < math.inf:
            raise ModelError(f"capacity must be finite and > 0, got {capacity!r}")
        policy = ThresholdAdmission.from_utility(utility, readmit_waiting=True)
        threshold = float(policy.threshold(capacity))
        census = self._table()
        admitted = census.folded(policy.admitted_cap(capacity))
        be_values, res_values = _flow_time_utilities(
            census, admitted, capacity, utility
        )
        paired = PairedGapResult(
            best_effort=be_values,
            reservation=res_values,
            gap=res_values - be_values,
            level=level,
        )
        values, pmf = self.census_distribution()
        return ReplayResult(
            capacity=float(capacity),
            threshold=threshold,
            windows=self.windows,
            warmup=self.warmup,
            horizon=self.horizon,
            flows=self.flows,
            events=self.events,
            max_pending=self.max_pending,
            census_values=values,
            census_pmf=pmf,
            mean_census=self.mean_census(),
            paired=paired,
        )


def _grow_columns(occ: np.ndarray, needed: int) -> np.ndarray:
    """Widen the level axis (values preserved bit-for-bit)."""
    if needed <= occ.shape[1]:
        return occ
    wider = np.zeros((occ.shape[0], needed), dtype=float)
    wider[:, : occ.shape[1]] = occ
    return wider


def sweep_occupancy(
    stream: TraceStream,
    *,
    windows: int = DEFAULT_WINDOWS,
    warmup: Optional[float] = None,
) -> TraceOccupancy:
    """Fold an arrival-sorted stream into per-window census occupancy.

    One pass, exact: the trace's event-driven census trajectory is
    reconstructed slab by slab, with pending departures kept in one
    sorted array.  A slab is the chunks buffered until they hold at
    least as many flows as are pending, since each fold sorts and
    merges that many departures anyway; it spans up to its last
    arrival.  After a fold the pending set is the census at that
    arrival, so ``max_pending`` is the peak census at fold instants.
    Window edges are injected as events, so a slab's time-ordered
    segments split into one contiguous run per window; each run is
    clipped to ``[warmup, horizon]`` and scattered into its window's
    row in time order.  Every cell thus adds its durations in global
    time order, making the result independent of the chunking —
    byte-identical occupancies for any ``chunk_flows``.

    Raises :class:`~repro.errors.ModelError` if ``windows`` is outside
    ``[2, MAX_WINDOWS]``, or if arrivals regress across or within
    chunks (replay needs time order; sort the trace, or use
    :func:`~repro.traces.stream.stream_trace`, first).
    """
    if windows < 2:
        raise ModelError(
            f"need windows >= 2 for a confidence interval, got {windows!r}"
        )
    if windows > MAX_WINDOWS:
        raise ModelError(
            f"need windows <= {MAX_WINDOWS} (one occupancy row each), got {windows!r}"
        )
    horizon = stream.horizon
    if warmup is None:
        warmup = 0.1 * horizon
    if not 0.0 <= warmup < horizon:
        raise ModelError(
            f"warmup must be in [0, horizon), got {warmup!r} vs {horizon!r}"
        )
    edges = np.linspace(warmup, horizon, windows + 1)
    inner = edges[1:-1]  # a segment starting at or after inner[w] is past window w

    occ = np.zeros((windows, 8), dtype=float)
    pending = np.empty(0, dtype=float)  # sorted departure times
    t_cur = 0.0
    n_cur = 0
    last_arrival = 0.0
    next_edge = 0  # edges[:next_edge] already injected as boundary events
    flows = 0
    events = 0
    slabs = 0
    max_pending = 0
    wall_start = time.perf_counter()

    def process_slab(
        arrivals: np.ndarray, ends: np.ndarray, slab_end: float
    ) -> None:
        """Fold all events up to ``slab_end`` into the occupancy.

        The merged events are in time order and every window edge is
        one of them, so each window's segments form one contiguous run,
        scattered into that window's row in time order.
        """
        nonlocal occ, t_cur, n_cur, next_edge, events
        edge_hi = next_edge
        while edge_hi < len(edges) and edges[edge_hi] <= slab_end:
            edge_hi += 1
        boundaries = edges[next_edge:edge_hi]
        next_edge = edge_hi
        n_arr, n_end = len(arrivals), len(ends)
        n = n_arr + n_end + len(boundaries)
        events += n_arr + n_end
        if n == 0:
            t_cur = slab_end
            return
        times = np.empty(n)
        times[:n_arr] = arrivals
        times[n_arr : n_arr + n_end] = ends
        times[n_arr + n_end :] = boundaries
        deltas = np.zeros(n, dtype=np.int64)
        deltas[:n_arr] = 1
        deltas[n_arr : n_arr + n_end] = -1
        # ties keep arrivals before departures before edges
        order = np.argsort(times, kind="stable")
        times = times[order]
        deltas = deltas[order]
        # segment i runs [starts[i], times[i]) at levels[i]
        starts = np.empty(n)
        starts[0] = t_cur
        starts[1:] = times[:-1]
        levels = np.empty(n, dtype=np.int64)
        levels[0] = n_cur
        levels[1:] = deltas[:-1]
        np.cumsum(levels, out=levels)
        n_cur = int(levels[-1] + deltas[-1])
        t_cur = slab_end
        if starts[0] < warmup or times[-1] > horizon:
            lo = np.maximum(starts, warmup)
            durs = np.minimum(times, horizon) - lo
            keep = durs > 0.0
            starts, durs, levels = lo[keep], durs[keep], levels[keep]
            if not len(durs):
                return
        else:
            # inside [warmup, horizon] no clip binds, and a zero-length
            # segment adds +0.0, which leaves every cell's bytes alone
            durs = times - starts
        top = int(levels.max())
        if top >= occ.shape[1]:
            occ = _grow_columns(occ, max(top + 1, 2 * occ.shape[1]))
        first = int(np.searchsorted(inner, starts[0], side="right"))
        last = int(np.searchsorted(inner, starts[-1], side="right"))
        cuts = np.searchsorted(starts, inner[first:last], side="left").tolist()
        for w, a, b in zip(range(first, last + 1), [0, *cuts], [*cuts, len(starts)]):
            if b > a:
                np.add.at(occ[w], levels[a:b], durs[a:b])

    with obs.span("traces.sweep", windows=windows):
        for arrivals, departures in _slabs(stream, lambda: len(pending)):
            if arrivals[0] < last_arrival or np.any(np.diff(arrivals) < 0.0):
                raise ModelError(
                    "replay requires an arrival-ordered stream; sort the "
                    "trace (stream_trace does) before sweeping"
                )
            last_arrival = float(arrivals[-1])
            flows += len(arrivals)
            slabs += 1
            ends_new = np.minimum(departures, horizon)
            slab_end = last_arrival
            split = int(np.searchsorted(pending, slab_end, side="right"))
            due, pending = pending[:split], pending[split:]
            new_due = ends_new[ends_new <= slab_end]
            new_later = ends_new[ends_new > slab_end]
            ends = np.sort(np.concatenate([due, new_due]))
            process_slab(arrivals, ends, slab_end)
            pending = np.sort(np.concatenate([pending, new_later]))
            if len(pending) > max_pending:
                max_pending = len(pending)
        # drain: departures (and window edges) after the last arrival
        split = int(np.searchsorted(pending, horizon, side="right"))
        process_slab(np.empty(0), pending[:split], horizon)

    # trim the level axis to the occupied range so the result is
    # canonical (growth doubling would otherwise leak the chunking)
    used = np.flatnonzero(occ.sum(axis=0) > 0.0)
    occ = occ[:, : int(used.max()) + 1] if len(used) else occ[:, :1]

    if obs.enabled():
        wall = time.perf_counter() - wall_start
        obs.counter("traces.replay.flows").inc(flows)
        obs.counter("traces.replay.events").inc(events)
        obs.counter("traces.replay.slabs").inc(slabs)
        obs.gauge("traces.replay.max_pending").set(max_pending)
        if wall > 0.0:
            obs.gauge("traces.replay.flow_rate").set(flows / wall)
    return TraceOccupancy(
        edges=edges,
        occupancy=occ,
        horizon=horizon,
        flows=flows,
        events=events,
        max_pending=max_pending,
    )


def replay_stream(
    stream: TraceStream,
    utility: UtilityFunction,
    capacity: float,
    *,
    windows: int = DEFAULT_WINDOWS,
    warmup: Optional[float] = None,
    level: float = 0.95,
) -> ReplayResult:
    """Sweep a stream once and evaluate the paired verdict at ``capacity``.

    Composes :func:`sweep_occupancy` and
    :meth:`TraceOccupancy.evaluate`; sweeping once and evaluating many
    capacities via the occupancy object is cheaper for sweeps (the
    occupancy is capacity-independent).
    """
    from repro.obs import resources

    with resources.profile_block("traces.replay"):
        occupancy = sweep_occupancy(stream, windows=windows, warmup=warmup)
        return occupancy.evaluate(utility, capacity, level=level)


def replay_trace(
    trace: FlowTrace,
    utility: UtilityFunction,
    capacity: float,
    *,
    windows: int = DEFAULT_WINDOWS,
    warmup: Optional[float] = None,
    level: float = 0.95,
    chunk_flows: int = DEFAULT_CHUNK_FLOWS,
) -> ReplayResult:
    """In-memory convenience wrapper: chunk the trace and replay it."""
    return replay_stream(
        stream_trace(trace, chunk_flows=chunk_flows),
        utility,
        capacity,
        windows=windows,
        warmup=warmup,
        level=level,
    )
