"""Tests for streaming trace ingestion: chunks, census, CSV/npz."""

import csv
import io
import json
import shutil

import numpy as np
import pytest

from repro.errors import ModelError
from repro.loads import PoissonLoad
from repro.simulation import AdmitAll, BirthDeathProcess, FlowSimulator, Link
from repro.traces import (
    FlowTrace,
    census_at,
    census_samples,
    materialize,
    mean_census,
    open_trace,
    open_trace_csv,
    open_trace_npz,
    read_trace,
    stream_census_at,
    stream_census_samples,
    stream_mean_census,
    stream_trace,
    write_trace,
    write_trace_csv,
    write_trace_npz,
)
from repro.traces.stream import (
    DEFAULT_CHUNK_FLOWS,
    SEGMENT_SCHEMA,
    TraceChunk,
    TraceStream,
    _slabs,
)


@pytest.fixture
def edge_trace():
    # simultaneous arrivals, a zero-length flow, and an open flow
    return FlowTrace(
        arrival=np.array([0.0, 1.0, 1.0, 2.5, 4.0]),
        departure=np.array([3.0, 1.0, 6.0, np.inf, 4.5]),
        horizon=5.0,
        metadata={"site": "pop1"},
    )


@pytest.fixture
def sim_trace():
    load = PoissonLoad(12.0)
    res = FlowSimulator(BirthDeathProcess(load), Link(15.0), AdmitAll()).run(
        120.0, warmup=12.0, seed=9
    )
    return FlowTrace.from_simulation(res)


class TestTraceChunk:
    def test_validation(self):
        with pytest.raises(ModelError):
            TraceChunk(np.array([[0.0]]), np.array([[1.0]]))
        with pytest.raises(ModelError):
            TraceChunk(np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(ModelError):
            TraceChunk(np.array([-1.0]), np.array([2.0]))
        with pytest.raises(ModelError):
            TraceChunk(np.array([2.0]), np.array([1.0]))
        # NaN fails every comparison, so `departure < arrival` let it in
        with pytest.raises(ModelError):
            TraceChunk(np.array([1.0]), np.array([np.nan]))
        with pytest.raises(ModelError):
            TraceChunk(np.array([np.nan]), np.array([1.0]))

    def test_zero_length_flows_are_valid(self):
        chunk = TraceChunk(np.array([1.0]), np.array([1.0]))
        assert len(chunk) == 1


class TestTraceStream:
    def test_header_before_first_chunk(self, edge_trace):
        stream = stream_trace(edge_trace)
        assert stream.horizon == edge_trace.horizon
        assert stream.metadata == {"site": "pop1"}
        assert stream.flows == len(edge_trace)

    def test_bad_horizon_rejected(self):
        for horizon in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ModelError, match="horizon"):
                TraceStream([], horizon=horizon)

    def test_streams_are_one_shot(self, edge_trace):
        stream = stream_trace(edge_trace)
        list(stream)
        with pytest.raises(ModelError):
            list(stream)

    def test_empty_chunks_are_skipped(self):
        chunks = [
            TraceChunk(np.empty(0), np.empty(0)),
            TraceChunk(np.array([1.0]), np.array([2.0])),
        ]
        stream = TraceStream(chunks, horizon=5.0)
        assert sum(len(c) for c in stream) == 1

    def test_stream_trace_chunks_and_sorts(self):
        trace = FlowTrace(
            arrival=np.array([3.0, 0.0, 2.0]),
            departure=np.array([4.0, 1.0, 6.0]),
            horizon=6.0,
        )
        chunks = list(stream_trace(trace, chunk_flows=2))
        assert [len(c) for c in chunks] == [2, 1]
        merged = np.concatenate([c.arrival for c in chunks])
        np.testing.assert_array_equal(merged, [0.0, 2.0, 3.0])

    def test_chunk_flows_must_be_positive(self, edge_trace):
        with pytest.raises(ModelError):
            stream_trace(edge_trace, chunk_flows=0)

    def test_materialize_round_trip(self, edge_trace):
        back = materialize(stream_trace(edge_trace, chunk_flows=2))
        order = np.argsort(edge_trace.arrival, kind="stable")
        np.testing.assert_array_equal(back.arrival, edge_trace.arrival[order])
        np.testing.assert_array_equal(back.departure, edge_trace.departure[order])
        assert back.horizon == edge_trace.horizon
        assert back.metadata == edge_trace.metadata

    def test_materialize_empty_stream(self):
        trace = materialize(TraceStream([], horizon=3.0))
        assert len(trace) == 0 and trace.horizon == 3.0


def _one_flow_chunks(n):
    return [TraceChunk(np.array([float(i)]), np.array([i + 1.0])) for i in range(n)]


class TestSlabs:
    def test_chunks_meeting_the_floor_pass_uncopied(self):
        chunks = [TraceChunk(np.arange(3.0) + i, np.arange(3.0) + i + 1) for i in range(4)]
        slabs = list(_slabs(TraceStream(chunks, horizon=20.0), lambda: 3))
        assert len(slabs) == len(chunks)
        for (arrival, departure), chunk in zip(slabs, chunks):
            assert arrival is chunk.arrival and departure is chunk.departure

    def test_small_chunks_join_until_they_reach_the_floor(self):
        stream = TraceStream(_one_flow_chunks(8), horizon=20.0)
        slabs = list(_slabs(stream, lambda: 3))
        assert [len(arrival) for arrival, _ in slabs] == [3, 3, 2]
        np.testing.assert_array_equal(np.concatenate([a for a, _ in slabs]), np.arange(8.0))
        np.testing.assert_array_equal(np.concatenate([d for _, d in slabs]), np.arange(1.0, 9.0))

    def test_floor_is_read_again_after_each_slab(self):
        # a floor that grows with the slabs already folded, as a
        # sweep's pending set does
        sizes = []
        stream = TraceStream(_one_flow_chunks(10), horizon=20.0)
        for arrival, _ in _slabs(stream, lambda: len(sizes)):
            sizes.append(len(arrival))
        assert sizes == [1, 1, 2, 3, 3]


class TestStreamingCensus:
    def test_matches_in_memory_exactly(self, sim_trace):
        ts = np.linspace(0.0, sim_trace.horizon, 101)
        expected = census_at(sim_trace, ts)
        for chunk_flows in (1, 7, 64, 10**9):
            got = stream_census_at(stream_trace(sim_trace, chunk_flows=chunk_flows), ts)
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("chunk_flows", [1, 137, DEFAULT_CHUNK_FLOWS])
    def test_same_dtype_and_values_as_in_memory(self, sim_trace, chunk_flows):
        ts = np.linspace(0.0, sim_trace.horizon, 57)
        expected = census_at(sim_trace, ts)
        got = stream_census_at(stream_trace(sim_trace, chunk_flows=chunk_flows), ts)
        assert got.dtype == expected.dtype == np.int64
        np.testing.assert_array_equal(got, expected)

    def test_edge_cases_match(self, edge_trace):
        ts = np.array([0.0, 1.0, 2.5, 4.0, 5.0])
        np.testing.assert_array_equal(
            stream_census_at(stream_trace(edge_trace, chunk_flows=2), ts),
            census_at(edge_trace, ts),
        )

    def test_query_outside_window_rejected(self, edge_trace):
        with pytest.raises(ModelError):
            stream_census_at(stream_trace(edge_trace), [6.0])

    def test_nan_query_rejected(self, sim_trace):
        # NaN fails both range comparisons, so it is no out-of-range time
        with pytest.raises(ModelError, match="query times"):
            census_at(sim_trace, [5.0, np.nan])
        with pytest.raises(ModelError, match="query times"):
            stream_census_at(stream_trace(sim_trace), [5.0, np.nan])

    def test_samples_replay_the_same_rng(self, sim_trace):
        expected = census_samples(sim_trace, 500, warmup=15.0, seed=42)
        got = stream_census_samples(
            stream_trace(sim_trace, chunk_flows=13), 500, warmup=15.0, seed=42
        )
        np.testing.assert_array_equal(got, expected)

    def test_samples_validation(self, edge_trace):
        with pytest.raises(ModelError):
            stream_census_samples(stream_trace(edge_trace), 0)
        with pytest.raises(ModelError):
            stream_census_samples(stream_trace(edge_trace), 5, warmup=5.0)

    def test_mean_census_matches(self, sim_trace):
        got = stream_mean_census(stream_trace(sim_trace, chunk_flows=11), warmup=12.0)
        assert got == pytest.approx(mean_census(sim_trace, warmup=12.0), rel=1e-12)

    def test_mean_census_validation(self, edge_trace):
        with pytest.raises(ModelError):
            stream_mean_census(stream_trace(edge_trace), warmup=-1.0)


class TestChunkedCsv:
    def test_round_trip_is_exact(self, edge_trace, tmp_path):
        path = write_trace_csv(stream_trace(edge_trace), tmp_path / "t.csv")
        back = materialize(open_trace_csv(path, chunk_flows=2))
        np.testing.assert_array_equal(back.arrival, edge_trace.arrival)
        np.testing.assert_array_equal(back.departure, edge_trace.departure)
        assert back.horizon == edge_trace.horizon
        assert back.metadata == edge_trace.metadata

    def test_reads_the_in_memory_writer_format(self, edge_trace, tmp_path):
        path = write_trace(edge_trace, tmp_path / "w.csv")
        stream = open_trace_csv(path)
        np.testing.assert_array_equal(
            materialize(stream).arrival, read_trace(path).arrival
        )

    def test_missing_horizon_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("arrival,departure\n0.0,1.0\n")
        with pytest.raises(ModelError, match="horizon"):
            open_trace_csv(bad)

    def test_bad_horizon_value(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# horizon=soon\narrival,departure\n0.0,1.0\n")
        with pytest.raises(ModelError, match="bad horizon"):
            open_trace_csv(bad)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-2.5"])
    def test_horizon_must_be_finite_and_positive(self, tmp_path, value):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"# site=a\n# horizon={value}\narrival,departure\n0.0,1.0\n")
        with pytest.raises(ModelError, match=r"bad\.csv line 2: bad horizon"):
            open_trace_csv(bad)

    @pytest.mark.parametrize(
        "row",
        ["0.5", "zero,one", "2.0,1.0", "-1.0,3.0", "1.0,nan"],
        ids=["short", "non-numeric", "departure-before-arrival", "negative", "nan-departure"],
    )
    def test_malformed_rows_name_file_and_line(self, tmp_path, row):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"# horizon=5.0\narrival,departure\n0.0,1.0\n{row}\n")
        with pytest.raises(ModelError, match=r"line 4"):
            list(open_trace_csv(bad))

    @pytest.mark.parametrize("chunk_flows", [1, DEFAULT_CHUNK_FLOWS])
    @pytest.mark.parametrize("row", ["2.0,1.0", "-1.0,3.0", "inf,inf", "1.0,nan"])
    def test_bad_row_refused_with_its_line_at_any_chunking(self, tmp_path, row, chunk_flows):
        # the chunks skip TraceChunk's check, so the parsers' refusal is the only one
        bad = tmp_path / "bad.csv"
        rows = "".join(f"{i}.0,{i + 1}.0\n" for i in range(40))
        bad.write_text(f"# horizon=50.0\narrival,departure\n{rows}{row}\n0.5,1.0\n")
        with pytest.raises(ModelError, match=r"bad\.csv line 43"):
            list(open_trace_csv(bad, chunk_flows=chunk_flows))

    @pytest.mark.parametrize(
        "lines, bad_line",
        [
            (["# site=\xff", "# horizon=5", "0,1"], 1),
            (["# horizon=5", "0,1", "1,2,\xfe", "2,3"], 3),
            (["# horizon=5", "0,1", "# \xc3(", "2,3"], 3),
        ],
        ids=["header", "data-row", "comment-among-rows"],
    )
    def test_undecodable_bytes_name_the_line(self, tmp_path, lines, bad_line):
        bad = tmp_path / "bad.csv"
        bad.write_bytes("\n".join(lines).encode("latin-1") + b"\n")
        with pytest.raises(ModelError, match=rf"bad\.csv line {bad_line}: not UTF-8"):
            list(open_trace_csv(bad))

    @pytest.mark.parametrize(
        "row",
        ["1," + "0" * 131072 + "2", "1,2," + "x" * 131073],
        ids=["departure", "extra-column"],
    )
    def test_oversized_field_names_the_line(self, tmp_path, row):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"# horizon=5.0\n0.0,1.0\n{row}\n2.0,3.0\n")
        with pytest.raises(ModelError, match=r"bad\.csv line 3: field larger"):
            list(open_trace_csv(bad))

    def test_write_trace_keeps_stored_order_and_format(self, tmp_path):
        trace = FlowTrace(
            arrival=np.array([2.5, 0.1 + 0.2, 1.0]),
            departure=np.array([np.inf, 1.0 / 3.0, 1.0]),
            horizon=5.0,
            metadata={"site": "pop1", "a": "b"},
        )
        path = write_trace(trace, tmp_path / "w.csv")
        assert path.read_bytes() == (
            b"# horizon=5.0\n# a=b\n# site=pop1\narrival,departure\r\n"
            b"2.5,inf\r\n0.30000000000000004,0.3333333333333333\r\n1.0,1.0\r\n"
        )

    def test_chunk_flows_must_be_positive(self, tmp_path):
        with pytest.raises(ModelError):
            open_trace_csv(tmp_path / "x.csv", chunk_flows=0)

    def test_writer_bytes_are_a_csv_writer_rendering(self, tmp_path):
        # subnormal, integral, 17-significant-digit and open-flow times,
        # written over several chunks
        trace = FlowTrace(
            arrival=np.array([0.0, 5e-324, 1e-310, 0.1 + 0.2, 1.2345678901234567, 3.0, 4096.0]),
            departure=np.array([np.inf, 2.5e-308, 1e-309, 1.0 / 3.0, 9.876543210987654, 3.0, 1e16]),
            horizon=2500.5,
            metadata={"site": "pop1"},
        )
        path = write_trace_csv(stream_trace(trace, chunk_flows=3), tmp_path / "t.csv")
        rendering = io.StringIO(newline="")
        writer = csv.writer(rendering)
        writer.writerow(["arrival", "departure"])
        for a, d in zip(trace.arrival, trace.departure):
            writer.writerow([repr(float(a)), repr(float(d))])
        header = "# horizon=2500.5\n# site=pop1\n"
        assert path.read_bytes() == (header + rendering.getvalue()).encode()
        back = materialize(open_trace_csv(path, chunk_flows=2))
        assert back.arrival.tobytes() == trace.arrival.tobytes()
        assert back.departure.tobytes() == trace.departure.tobytes()
        assert (back.horizon, back.metadata) == (trace.horizon, trace.metadata)


class TestNpzSegments:
    def test_round_trip_is_exact(self, edge_trace, tmp_path):
        path = write_trace_npz(stream_trace(edge_trace, chunk_flows=2), tmp_path / "seg")
        stream = open_trace_npz(path)
        assert stream.flows == len(edge_trace)
        back = materialize(stream)
        np.testing.assert_array_equal(back.arrival, edge_trace.arrival)
        np.testing.assert_array_equal(back.departure, edge_trace.departure)
        assert back.metadata == edge_trace.metadata

    def test_one_segment_per_chunk(self, edge_trace, tmp_path):
        path = write_trace_npz(stream_trace(edge_trace, chunk_flows=2), tmp_path / "seg")
        assert len(sorted(path.glob("segment-*.npz"))) == 3

    def test_missing_index(self, tmp_path):
        with pytest.raises(ModelError, match="index.json"):
            open_trace_npz(tmp_path)

    def test_corrupt_index(self, tmp_path):
        (tmp_path / "index.json").write_text("{nope")
        with pytest.raises(ModelError, match="corrupt"):
            open_trace_npz(tmp_path)

    def test_wrong_schema(self, tmp_path):
        (tmp_path / "index.json").write_text('{"schema": "other/v9"}')
        with pytest.raises(ModelError, match=SEGMENT_SCHEMA):
            open_trace_npz(tmp_path)

    def test_missing_segment_detected(self, edge_trace, tmp_path):
        path = write_trace_npz(stream_trace(edge_trace, chunk_flows=2), tmp_path / "seg")
        (path / "segment-00001.npz").unlink()
        with pytest.raises(ModelError, match="missing"):
            list(open_trace_npz(path))

    def test_nan_departure_in_a_segment_is_refused(self, edge_trace, tmp_path):
        path = write_trace_npz(stream_trace(edge_trace, chunk_flows=2), tmp_path / "seg")
        np.savez_compressed(
            path / "segment-00001.npz",
            arrival=np.array([1.0, 2.5]),
            departure=np.array([6.0, np.nan]),
        )
        with pytest.raises(ModelError, match="arrival <= departure"):
            list(open_trace_npz(path))

    def test_flow_count_mismatch_detected(self, edge_trace, tmp_path):
        path = write_trace_npz(stream_trace(edge_trace, chunk_flows=2), tmp_path / "seg")
        np.savez_compressed(
            path / "segment-00000.npz",
            arrival=np.array([0.0]),
            departure=np.array([1.0]),
        )
        with pytest.raises(ModelError, match="index says"):
            list(open_trace_npz(path))


def _index_edit(change):
    """Rewrite ``index.json`` through ``change(index) -> new index``."""

    def corrupt(path):
        index = json.loads((path / "index.json").read_text())
        (path / "index.json").write_text(json.dumps(change(index)))

    return corrupt


def _first_file(name):
    """Point the first segment entry at ``name(path)``."""

    def change_at(path):
        def change(index):
            index["segments"][0]["file"] = name(path)
            return index

        _index_edit(change)(path)

    return change_at


def _outside(path):
    """A well-formed segment beside, not inside, the directory."""
    shutil.copy(path / "segment-00000.npz", path.parent / "outside.npz")
    return path.parent / "outside.npz"


def _segment_bytes(edit):
    def corrupt(path):
        segment = path / "segment-00000.npz"
        segment.write_bytes(edit(segment.read_bytes()))

    return corrupt


def _plain_npy(path):
    with open(path / "segment-00000.npz", "wb") as handle:
        np.save(handle, np.array([0.0, 1.0]))


#: Each edit leaves a segment directory that must be refused with
#: ModelError, on open or while streaming, never an untyped error.
MALFORMED_SEGMENT_DIRS = {
    "index-is-a-list": _index_edit(lambda index: []),
    "no-segments-key": _index_edit(
        lambda index: {k: v for k, v in index.items() if k != "segments"}
    ),
    "horizon-is-a-word": _index_edit(lambda index: {**index, "horizon": "soon"}),
    "horizon-overflows-float": _index_edit(lambda index: {**index, "horizon": 10**400}),
    "flows-is-null": _index_edit(lambda index: {**index, "flows": None}),
    "metadata-is-a-list": _index_edit(lambda index: {**index, "metadata": []}),
    "segment-entry-is-a-string": _index_edit(
        lambda index: {**index, "segments": ["segment-00000.npz"]}
    ),
    "segment-flows-is-a-string": _index_edit(
        lambda index: {
            **index,
            "segments": [{**index["segments"][0], "flows": "2"}] + index["segments"][1:],
        }
    ),
    "segment-file-is-a-number": _first_file(lambda path: 5),
    "segment-file-is-absolute": _first_file(lambda path: str(_outside(path).resolve())),
    "segment-file-climbs-out": _first_file(lambda path: "../" + _outside(path).name),
    "segment-file-is-dot-dot": _first_file(lambda path: ".."),
    "segment-file-is-empty": _first_file(lambda path: ""),
    "segment-is-junk-bytes": _segment_bytes(lambda data: b"junk" * 16),
    "segment-is-truncated": _segment_bytes(lambda data: data[: len(data) // 2]),
    "segment-is-empty": _segment_bytes(lambda data: b""),
    "segment-is-bit-flipped": _segment_bytes(
        lambda data: data[:60] + bytes(20) + data[80:]
    ),
    "segment-lacks-departure": lambda path: np.savez_compressed(
        path / "segment-00000.npz", arrival=np.array([0.0, 1.0])
    ),
    "segment-is-a-plain-npy": _plain_npy,
    "segment-arrays-are-text": lambda path: np.savez_compressed(
        path / "segment-00000.npz",
        arrival=np.array(["a", "b"]),
        departure=np.array(["c", "d"]),
    ),
}


@pytest.mark.parametrize(
    "corrupt", list(MALFORMED_SEGMENT_DIRS.values()), ids=list(MALFORMED_SEGMENT_DIRS)
)
def test_malformed_segment_directory_is_refused(edge_trace, tmp_path, corrupt):
    path = write_trace_npz(stream_trace(edge_trace, chunk_flows=2), tmp_path / "seg")
    corrupt(path)
    with pytest.raises(ModelError):
        list(open_trace_npz(path))


class TestOpenTraceDispatch:
    def test_directory_opens_as_npz(self, edge_trace, tmp_path):
        path = write_trace_npz(stream_trace(edge_trace), tmp_path / "seg")
        assert open_trace(path).flows == len(edge_trace)

    def test_file_opens_as_csv(self, edge_trace, tmp_path):
        path = write_trace_csv(stream_trace(edge_trace), tmp_path / "t.csv")
        got = materialize(open_trace(path))
        np.testing.assert_array_equal(got.arrival, edge_trace.arrival)
