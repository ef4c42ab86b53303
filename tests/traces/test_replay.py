"""Tests for the streaming occupancy sweep and CRN-paired replay."""

import json
import math

import numpy as np
import pytest

from repro import obs
from repro.errors import ModelError
from repro.loads import PoissonLoad
from repro.models import VariableLoadModel
from repro.traces import (
    FlowTrace,
    default_workload,
    replay_stream,
    replay_trace,
    stream_trace,
    sweep_occupancy,
)
from repro.traces.stream import DEFAULT_CHUNK_FLOWS, TraceChunk, TraceStream
from repro.utility import AdaptiveUtility


@pytest.fixture(scope="module")
def bursty_trace():
    from repro.traces import materialize

    stream = default_workload("bursty", 20.0).stream(80.0, seed=6)
    return materialize(stream)


class TestSweepValidation:
    def test_needs_at_least_two_windows(self, bursty_trace):
        with pytest.raises(ModelError, match="windows"):
            sweep_occupancy(stream_trace(bursty_trace), windows=1)

    def test_warmup_must_precede_horizon(self, bursty_trace):
        with pytest.raises(ModelError, match="warmup"):
            sweep_occupancy(stream_trace(bursty_trace), warmup=80.0)

    def test_rejects_unsorted_chunks(self):
        stream = TraceStream(
            [
                TraceChunk(np.array([5.0]), np.array([6.0])),
                TraceChunk(np.array([1.0]), np.array([2.0])),
            ],
            horizon=10.0,
        )
        with pytest.raises(ModelError, match="arrival-ordered"):
            sweep_occupancy(stream)

    def test_rejects_unsorted_within_a_chunk(self):
        stream = TraceStream(
            [TraceChunk(np.array([3.0, 1.0]), np.array([4.0, 2.0]))],
            horizon=10.0,
        )
        with pytest.raises(ModelError, match="arrival-ordered"):
            sweep_occupancy(stream)


class TestSweepExactness:
    def test_chunking_is_invisible(self, bursty_trace):
        reference = sweep_occupancy(
            stream_trace(bursty_trace, chunk_flows=10**9), windows=6, warmup=8.0
        )
        for chunk_flows in (1, 7, 137, 1000):
            got = sweep_occupancy(
                stream_trace(bursty_trace, chunk_flows=chunk_flows),
                windows=6,
                warmup=8.0,
            )
            np.testing.assert_array_equal(got.occupancy, reference.occupancy)
            np.testing.assert_array_equal(got.edges, reference.edges)
            assert got.flows == reference.flows
            assert got.events == reference.events

    def test_rows_sum_to_window_widths(self, bursty_trace):
        occ = sweep_occupancy(stream_trace(bursty_trace), windows=5, warmup=8.0)
        np.testing.assert_allclose(
            occ.occupancy.sum(axis=1), np.diff(occ.edges), rtol=1e-9, atol=1e-9
        )

    def test_occupancy_matches_hand_computed_trajectory(self):
        # flows [0,4), [1,2), [3,5->horizon): census 1,2,1,2,1 on unit spans
        trace = FlowTrace(
            arrival=np.array([0.0, 1.0, 3.0]),
            departure=np.array([4.0, 2.0, np.inf]),
            horizon=5.0,
        )
        occ = sweep_occupancy(stream_trace(trace), windows=2, warmup=0.0)
        # window [0, 2.5): level 1 on [0,1)+[2,2.5), level 2 on [1,2)
        np.testing.assert_allclose(occ.occupancy[0, 1], 1.5)
        np.testing.assert_allclose(occ.occupancy[0, 2], 1.0)
        # window [2.5, 5): level 1 on [2.5,3)+[4,5), level 2 on [3,4)
        np.testing.assert_allclose(occ.occupancy[1, 1], 1.5)
        np.testing.assert_allclose(occ.occupancy[1, 2], 1.0)

    def test_empty_trace_sits_at_level_zero(self):
        occ = sweep_occupancy(TraceStream([], horizon=10.0), windows=2, warmup=2.0)
        np.testing.assert_allclose(occ.occupancy[:, 0], [4.0, 4.0])
        assert occ.flows == 0 and occ.max_census == 0

    def test_census_distribution_is_a_pmf(self, bursty_trace):
        occ = sweep_occupancy(stream_trace(bursty_trace), warmup=8.0)
        values, pmf = occ.census_distribution()
        assert pmf.sum() == pytest.approx(1.0)
        assert np.all(pmf > 0.0)
        assert occ.mean_census() == pytest.approx(float(np.dot(values, pmf)))


@pytest.fixture(scope="module")
def verify_trace():
    """The 9,109-flow bursty trace invariant T3 replays at several chunkings."""
    from repro.experiments.params import DEFAULT_CONFIG as config
    from repro.traces import materialize
    from repro.traces.workloads import BurstyWorkload

    stream = BurstyWorkload(2.0 * config.sim_kbar).stream(120.0, seed=config.sim_seed)
    return materialize(stream)


def _folds(trace, chunk_flows):
    """Slabs one sweep of ``trace`` folds at ``chunk_flows``."""
    with obs.session() as (registry, _):
        sweep_occupancy(stream_trace(trace, chunk_flows=chunk_flows), warmup=12.0)
        return registry.counter("traces.replay.slabs").value


class TestSlabFolds:
    def test_one_flow_chunks_fold_in_slabs(self, verify_trace):
        # chunks buffer until they outnumber the pending departures each
        # fold merges: about flows / mean census folds, not one per flow
        assert 2 <= _folds(verify_trace, 1) <= len(verify_trace) / 16

    @pytest.mark.parametrize("chunk_flows", [1000, DEFAULT_CHUNK_FLOWS])
    def test_chunks_above_the_pending_set_fold_one_by_one(self, verify_trace, chunk_flows):
        assert _folds(verify_trace, chunk_flows) == math.ceil(len(verify_trace) / chunk_flows)


class TestReplay:
    def test_poisson_replay_recovers_the_analytic_gap(self):
        utility = AdaptiveUtility()
        rate, capacity = 30.0, 33.0
        stream = default_workload("poisson", rate).stream(400.0, seed=12)
        result = replay_stream(stream, utility, capacity, warmup=40.0)
        model = VariableLoadModel(PoissonLoad(rate), utility)
        summary = result.summary()
        analytic_gap = float(model.performance_gap(capacity))
        assert abs(summary["best_effort"] - float(model.best_effort(capacity))) < 0.05
        assert abs(summary["gap"] - analytic_gap) <= 3.0 * summary["gap_ci"] + 2e-3

    def test_replay_trace_equals_replay_stream(self, bursty_trace):
        utility = AdaptiveUtility()
        a = replay_trace(bursty_trace, utility, 22.0, windows=6, warmup=8.0)
        b = replay_stream(
            stream_trace(bursty_trace, chunk_flows=13),
            utility,
            22.0,
            windows=6,
            warmup=8.0,
        )
        np.testing.assert_array_equal(a.paired.gap, b.paired.gap)
        np.testing.assert_array_equal(a.census_pmf, b.census_pmf)
        assert a.summary() == b.summary()

    def test_windows_double_as_replications(self, bursty_trace):
        result = replay_trace(
            bursty_trace, AdaptiveUtility(), 22.0, windows=6, warmup=8.0
        )
        assert result.windows == 6
        assert result.paired.gap.shape == (6,)
        assert result.summary()["replications"] == 6

    def test_capacity_must_be_positive(self, bursty_trace):
        occ = sweep_occupancy(stream_trace(bursty_trace), warmup=8.0)
        with pytest.raises(ModelError, match="capacity"):
            occ.evaluate(AdaptiveUtility(), 0.0)

    @pytest.mark.parametrize("capacity", [float("nan"), float("inf"), float("-inf")])
    def test_capacity_must_be_finite(self, bursty_trace, capacity):
        occ = sweep_occupancy(stream_trace(bursty_trace), warmup=8.0)
        with pytest.raises(ModelError, match="capacity"):
            occ.evaluate(AdaptiveUtility(), capacity)

    def test_summary_is_json_ready(self, bursty_trace):
        result = replay_trace(
            bursty_trace, AdaptiveUtility(), 22.0, windows=4, warmup=8.0
        )
        summary = result.summary()
        payload = json.loads(json.dumps(summary))
        assert payload["flows"] == len(bursty_trace)
        for key in (
            "best_effort",
            "best_effort_ci",
            "reservation",
            "reservation_ci",
            "gap",
            "gap_ci",
            "capacity",
            "threshold",
            "mean_census",
        ):
            assert isinstance(payload[key], float), key

    def test_reservation_caps_the_admitted_census(self, bursty_trace):
        # at very tight capacity the reservation admits fewer flows
        # than best effort but keeps per-flow service at full rate
        result = replay_trace(
            bursty_trace, AdaptiveUtility(), 8.0, windows=4, warmup=8.0
        )
        assert result.threshold < result.summary()["mean_census"]
        assert np.all(result.paired.reservation >= 0.0)
