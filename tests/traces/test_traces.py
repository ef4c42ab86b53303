"""Tests for the flow-trace format, census derivation, and pipeline."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.loads import AlgebraicLoad, PoissonLoad
from repro.simulation import AdmitAll, BirthDeathProcess, FlowSimulator, Link
from repro.traces import (
    FlowTrace,
    analyze_trace,
    census_at,
    census_samples,
    census_trajectory,
    mean_census,
    read_trace,
    write_trace,
)
from repro.utility import AdaptiveUtility


@pytest.fixture
def tiny_trace():
    # flows: [0,4], [1,2], [3,5(open->horizon)], horizon 5
    return FlowTrace(
        arrival=np.array([0.0, 1.0, 3.0]),
        departure=np.array([4.0, 2.0, np.inf]),
        horizon=5.0,
    )


class TestFlowTrace:
    def test_validation(self):
        with pytest.raises(ModelError):
            FlowTrace(np.array([1.0]), np.array([0.5]), horizon=5.0)
        with pytest.raises(ModelError):
            FlowTrace(np.array([1.0, 2.0]), np.array([3.0]), horizon=5.0)
        with pytest.raises(ModelError):
            FlowTrace(np.array([1.0]), np.array([2.0]), horizon=0.0)
        with pytest.raises(ModelError):
            FlowTrace(np.array([1.0]), np.array([np.nan]), horizon=5.0)
        for horizon in (np.nan, np.inf):
            with pytest.raises(ModelError, match="finite"):
                FlowTrace(np.array([1.0]), np.array([2.0]), horizon=horizon)

    def test_durations_clip_open_flows(self, tiny_trace):
        np.testing.assert_allclose(tiny_trace.durations, [4.0, 1.0, 2.0])

    def test_from_simulation(self):
        load = PoissonLoad(8.0)
        res = FlowSimulator(BirthDeathProcess(load), Link(10.0), AdmitAll()).run(
            60.0, warmup=6.0, seed=3
        )
        trace = FlowTrace.from_simulation(res, source="test")
        assert len(trace) == len(res.flows)
        assert trace.metadata["source"] == "test"


class TestCensusTrajectory:
    def test_exact_counts(self, tiny_trace):
        times, counts = census_trajectory(tiny_trace)
        # t in [0,1): 1 flow; [1,2): 2; [2,3): 1; [3,4): 2; [4,5): 1
        for t, expected in [(0.5, 1), (1.5, 2), (2.5, 1), (3.5, 2), (4.5, 1)]:
            assert census_at(tiny_trace, [t])[0] == expected

    def test_mean_census_little_law(self, tiny_trace):
        # flow-seconds = 4 + 1 + 2 = 7 over horizon 5
        assert mean_census(tiny_trace) == pytest.approx(7.0 / 5.0)

    def test_mean_census_with_warmup(self, tiny_trace):
        # window [2, 5]: census 1 on [2,3), 2 on [3,4), 1 on [4,5)
        assert mean_census(tiny_trace, warmup=2.0) == pytest.approx(4.0 / 3.0)

    def test_samples_match_time_weights(self, tiny_trace):
        draws = census_samples(tiny_trace, 20_000, seed=1)
        # P(census == 2) = 2/5 of the window
        assert float(np.mean(draws == 2)) == pytest.approx(0.4, abs=0.02)

    def test_empty_trace_census_is_identically_zero(self):
        # regression: the simultaneous-event merge used to crash on a
        # zero-flow trace instead of reporting the all-zero trajectory
        empty = FlowTrace(np.empty(0), np.empty(0), horizon=4.0)
        times, counts = census_trajectory(empty)
        np.testing.assert_array_equal(times, [0.0])
        np.testing.assert_array_equal(counts, [0.0])
        assert census_at(empty, [2.0])[0] == 0
        assert mean_census(empty) == 0.0

    def test_query_outside_window_rejected(self, tiny_trace):
        with pytest.raises(ModelError):
            census_at(tiny_trace, [6.0])

    def test_matches_simulator_census(self):
        load = PoissonLoad(10.0)
        res = FlowSimulator(BirthDeathProcess(load), Link(12.0), AdmitAll()).run(
            200.0, warmup=20.0, seed=5
        )
        trace = FlowTrace.from_simulation(res)
        # compare the trace-derived census with the simulator's own
        ts = np.linspace(25.0, 195.0, 50)
        from_trace = census_at(trace, ts)
        from_sim = res.trajectory.value_at(ts)
        np.testing.assert_array_equal(from_trace, from_sim)


class TestPersistence:
    def test_round_trip(self, tiny_trace, tmp_path):
        path = write_trace(tiny_trace, tmp_path / "t.csv")
        loaded = read_trace(path)
        np.testing.assert_allclose(loaded.arrival, tiny_trace.arrival)
        np.testing.assert_allclose(loaded.departure, tiny_trace.departure)
        assert loaded.horizon == tiny_trace.horizon

    def test_metadata_round_trip(self, tmp_path):
        trace = FlowTrace(
            np.array([0.0]),
            np.array([1.0]),
            horizon=2.0,
            metadata={"site": "pop3", "vantage": "edge"},
        )
        loaded = read_trace(write_trace(trace, tmp_path / "m.csv"))
        assert loaded.metadata == {"site": "pop3", "vantage": "edge"}

    def test_missing_horizon_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("arrival,departure\n0.0,1.0\n")
        with pytest.raises(ModelError):
            read_trace(bad)

    def test_bad_horizon_value_names_the_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# horizon=never\narrival,departure\n0.0,1.0\n")
        with pytest.raises(ModelError, match="line 1.*bad horizon"):
            read_trace(bad)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0.5", "expected"),
            ("a,b", "non-numeric"),
            ("3.0,1.0", "0 <= arrival <= departure"),
            ("-2.0,1.0", "0 <= arrival <= departure"),
            ("1.0,nan", "0 <= arrival <= departure"),
        ],
        ids=["short-row", "non-numeric", "departs-early", "negative", "nan-departure"],
    )
    def test_malformed_rows_name_file_and_line(self, tmp_path, row, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"# horizon=9.0\narrival,departure\n0.0,1.0\n{row}\n")
        with pytest.raises(ModelError, match=message) as err:
            read_trace(bad)
        assert "line 4" in str(err.value)
        assert "bad.csv" in str(err.value)

    def test_horizon_after_the_data_is_refused(self, tmp_path):
        # the header precedes the flows; a later '#' line is a comment,
        # for the in-memory reader as for the stream
        late = tmp_path / "late.csv"
        late.write_text("arrival,departure\n0.0,1.0\n# horizon=9.0\n")
        with pytest.raises(ModelError, match="no '# horizon=' header"):
            read_trace(late)

    def test_zero_length_flows_round_trip(self, tmp_path):
        # departure == arrival is a valid (zero-duration) flow and must
        # survive persistence bit-for-bit without perturbing the census
        trace = FlowTrace(
            arrival=np.array([0.5, 1.0, 1.0]),
            departure=np.array([0.5, 1.0, 3.0]),
            horizon=4.0,
        )
        loaded = read_trace(write_trace(trace, tmp_path / "z.csv"))
        np.testing.assert_array_equal(loaded.arrival, trace.arrival)
        np.testing.assert_array_equal(loaded.departure, trace.departure)
        assert census_at(loaded, [1.0])[0] == 1

    def test_awkward_floats_round_trip_exactly(self, tmp_path):
        values = np.array([0.1 + 0.2, 1.0 / 3.0, np.pi])
        trace = FlowTrace(values, values + np.e, horizon=10.0)
        loaded = read_trace(write_trace(trace, tmp_path / "f.csv"))
        np.testing.assert_array_equal(loaded.arrival, trace.arrival)
        np.testing.assert_array_equal(loaded.departure, trace.departure)


class TestPipeline:
    def test_trace_to_verdict_poisson(self):
        load = PoissonLoad(40.0)
        res = FlowSimulator(BirthDeathProcess(load), Link(44.0), AdmitAll()).run(
            500.0, warmup=50.0, seed=7
        )
        trace = FlowTrace.from_simulation(res)
        rec = analyze_trace(trace, AdaptiveUtility(), price=0.02, samples=3000)
        assert rec.load_family == "poisson"
        assert not rec.reservations_recommended

    def test_zero_flow_trace_is_a_clear_error(self):
        empty = FlowTrace(np.empty(0), np.empty(0), horizon=10.0)
        with pytest.raises(ModelError, match="zero-flow"):
            analyze_trace(empty, AdaptiveUtility(), price=0.05)

    def test_warmup_at_or_past_horizon_is_a_clear_error(self, tiny_trace):
        with pytest.raises(ModelError, match="warmup"):
            analyze_trace(tiny_trace, AdaptiveUtility(), price=0.05, warmup=5.0)
        with pytest.raises(ModelError, match="warmup"):
            analyze_trace(tiny_trace, AdaptiveUtility(), price=0.05, warmup=7.0)
        with pytest.raises(ModelError, match="warmup"):
            analyze_trace(tiny_trace, AdaptiveUtility(), price=0.05, warmup=-1.0)

    def test_trace_to_verdict_heavy_tail(self):
        load = AlgebraicLoad.from_mean(3.0, 40.0)
        res = FlowSimulator(BirthDeathProcess(load), Link(60.0), AdmitAll()).run(
            4000.0, warmup=500.0, seed=11
        )
        trace = FlowTrace.from_simulation(res)
        rec = analyze_trace(trace, AdaptiveUtility(), price=0.01, samples=3000)
        # heavy-tailed dynamics: the tail estimator flags it even when
        # the finite trace's family fit is ambiguous
        assert rec.tail is not None and rec.tail.heavy_tailed
