"""Deriving census statistics from flow traces.

The analytic model consumes a census distribution; an operator records
flow traces.  These helpers bridge them: the exact event-driven census
trajectory, time-weighted census samples, and the empirical mean —
all by sorting arrival/departure events once (O(n log n)).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ModelError
from repro.traces.format import FlowTrace
from repro.traces.stream import _query_times, stream_census_samples, stream_trace


def census_trajectory(trace: FlowTrace) -> Tuple[np.ndarray, np.ndarray]:
    """Exact piecewise-constant census of a trace.

    Returns ``(times, counts)``: ``counts[i]`` flows are present on
    ``[times[i], times[i+1])``; the final segment extends to the
    horizon.  Starts at ``times[0] = 0`` with the count of flows that
    arrived at (or before) time zero.  Counts are int64, the dtype
    :func:`~repro.traces.stream.stream_census_at` answers in.
    """
    starts = np.sort(trace.arrival)
    ends = np.sort(np.minimum(trace.departure, trace.horizon))
    times = np.concatenate([starts, ends])
    deltas = np.concatenate(
        [np.ones(len(starts), dtype=np.int64), np.full(len(ends), -1, dtype=np.int64)]
    )
    order = np.argsort(times, kind="stable")
    times = times[order]
    counts = np.cumsum(deltas[order])
    # merge simultaneous events (empty traces have no events to merge)
    if len(times):
        keep = np.append(np.diff(times) > 0.0, True)
        times = times[keep]
        counts = counts[keep]
    if len(times) == 0 or times[0] > 0.0:
        times = np.concatenate([[0.0], times])
        counts = np.concatenate([np.zeros(1, dtype=np.int64), counts])
    return times, counts


def census_at(trace: FlowTrace, query_times) -> np.ndarray:
    """Census at arbitrary instants in ``[0, horizon]`` (NaN is refused)."""
    q = _query_times(query_times, trace.horizon)
    times, counts = census_trajectory(trace)
    idx = np.clip(np.searchsorted(times, q, side="right") - 1, 0, len(counts) - 1)
    return counts[idx]


def census_samples(
    trace: FlowTrace,
    n: int,
    *,
    warmup: float = 0.0,
    seed: Optional[int] = None,
) -> np.ndarray:
    """``n`` time-uniform census samples (the inference module's food).

    Uniform time sampling makes the samples distributed as the
    time-stationary census — exactly the ``P(k)`` of the paper's
    variable-load model.  A view of
    :func:`~repro.traces.stream.stream_census_samples`.
    """
    return stream_census_samples(stream_trace(trace), n, warmup=warmup, seed=seed)


def mean_census(trace: FlowTrace, *, warmup: float = 0.0) -> float:
    """Time-average census over ``[warmup, horizon]``.

    Equals total flow-seconds over window length (Little's-law view).
    """
    if not 0.0 <= warmup < trace.horizon:
        raise ModelError(f"warmup must be in [0, horizon), got {warmup!r}")
    times, counts = census_trajectory(trace)
    ends = np.append(times[1:], trace.horizon)
    seg_start = np.maximum(times, warmup)
    seg_end = np.minimum(ends, trace.horizon)
    weights = np.maximum(0.0, seg_end - seg_start)
    window = trace.horizon - warmup
    return float(np.dot(counts, weights) / window)
