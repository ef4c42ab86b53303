"""The occupancy sweep against a per-event reference fold, byte for byte.

``sweep_occupancy`` folds a stream slab by slab with numpy; the
reference below walks one merged event list in plain Python.  Both add
each positive-length segment, clipped to ``[warmup, horizon]``, to the
cell of its window and census level in time order, so their tables
must agree to the last bit for any trace, window count and chunking.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.traces import FlowTrace, default_workload, stream_trace, sweep_occupancy
from repro.verify.strategies import trace_chunk_sizes, traces


def reference_occupancy(trace: FlowTrace, windows: int, warmup: float):
    """Window edges and occupancy table of ``trace``, one event at a time."""
    horizon = trace.horizon
    edges = np.linspace(warmup, horizon, windows + 1)
    # ties: arrivals, then departures, then window edges
    events = sorted(
        [(float(t), 0, 1) for t in trace.arrival]
        + [(min(float(t), horizon), 1, -1) for t in trace.departure]
        + [(float(e), 2, 0) for e in edges],
        key=lambda event: event[:2],
    )
    cells = {}
    start, level = 0.0, 0
    for t, _, step in events:
        lo, hi = max(start, warmup), min(t, horizon)
        if hi - lo > 0.0:
            window = min(max(int(np.sum(edges <= lo)) - 1, 0), windows - 1)
            cells[window, level] = cells.get((window, level), 0.0) + (hi - lo)
        start, level = t, level + step
    occupancy = np.zeros((windows, max(n for _, n in cells) + 1))
    for (window, n), dwell in cells.items():
        occupancy[window, n] = dwell
    return edges, occupancy


@st.composite
def fold_cases(draw):
    """A trace plus window count and warmup, with flows forced onto edges.

    Forced flows arrive exactly on a window edge and leave at once, on a
    later edge, at the horizon, past it or never, and a few arrive after
    the horizon: the ties and clips the fold must get right.
    """
    trace = draw(traces())
    horizon = trace.horizon
    windows = draw(st.integers(min_value=2, max_value=40))
    warmup = draw(
        st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=horizon, exclude_max=True),
        )
    )
    edges = np.linspace(warmup, horizon, windows + 1).tolist()
    arrivals, departures = list(trace.arrival), list(trace.departure)
    for k in draw(st.lists(st.integers(0, windows), max_size=8)):
        leave = draw(st.sampled_from(("zero", "edge", "horizon", "past", "open")))
        departure = {
            "zero": edges[k],
            "edge": edges[draw(st.integers(k, windows))],
            "horizon": horizon,
            "past": horizon + 1.0,
            "open": float("inf"),
        }[leave]
        arrivals.append(edges[k])
        departures.append(max(departure, edges[k]))
    # a record may also start after the horizon: it never enters the table
    for late in draw(st.lists(st.floats(horizon, 2.0 * horizon), max_size=2)):
        arrivals.append(late)
        departures.append(late + draw(st.sampled_from((0.0, 1.0))))
    return FlowTrace(np.array(arrivals), np.array(departures), horizon=horizon), windows, warmup


def _case(arrival, departure, horizon, windows, warmup):
    return FlowTrace(np.array(arrival), np.array(departure), horizon=horizon), windows, warmup


class TestAgainstReference:
    @given(case=fold_cases(), chunk_flows=trace_chunk_sizes())
    @example(  # arrivals and departures on the edges of 4 windows, warmup 0
        case=_case([0.0, 2.5, 5.0, 5.0, 7.5], [2.5, 5.0, 5.0, 10.0, 12.0], 10.0, 4, 0.0),
        chunk_flows=1,
    )
    @example(  # zero-length flows only, one at the warmup edge
        case=_case([1.0, 2.0, 2.0], [1.0, 2.0, 2.0], 4.0, 2, 1.0), chunk_flows=2
    )
    @settings(max_examples=200, deadline=None)
    def test_sweep_equals_per_event_fold(self, case, chunk_flows):
        trace, windows, warmup = case
        edges, occupancy = reference_occupancy(trace, windows, warmup)
        got = sweep_occupancy(
            stream_trace(trace, chunk_flows=chunk_flows), windows=windows, warmup=warmup
        )
        assert got.edges.tobytes() == edges.tobytes()
        assert got.occupancy.shape == occupancy.shape
        assert got.occupancy.tobytes() == occupancy.tobytes()
        assert got.flows == len(trace) and got.events == 2 * len(trace)


def occupancy_digest(occ) -> str:
    """Bytes of the window edges and occupancy table, hashed."""
    digest = hashlib.sha256(np.asarray(occ.edges).tobytes())
    digest.update(np.ascontiguousarray(occ.occupancy).tobytes())
    return digest.hexdigest()


#: Rate 200 to t=60, seed 1000, 16 windows after a 6.0 warmup: digest,
#: max_pending and events of the slab fold that scattered through a
#: 2-D ``np.add.at`` before the per-window runs replaced it.
PINNED = {
    "poisson": ("6cb8ed94777ad83b6ed6f12fedee0b57e56061d330af1f381cb724b65a71d047", 194, 23910),
    "diurnal": ("1672c66c406d211c5a03329501f60073a6773b4a63761495fc806d7c6fe429c6", 138, 30838),
    "bursty": ("872f6c88c8161a47a11a001a6b124558ab6bc2b84524cdc934085b9957fe7a7a", 410, 25072),
}


@pytest.mark.parametrize("shape", sorted(PINNED))
def test_workload_occupancy_is_pinned(shape):
    stream = default_workload(shape, 200.0).stream(60.0, seed=1000)
    occ = sweep_occupancy(stream, windows=16, warmup=6.0)
    assert (occupancy_digest(occ), occ.max_pending, occ.events) == PINNED[shape]
