"""Streaming flow-trace ingestion: millions of flows at constant memory.

The in-memory :class:`~repro.traces.format.FlowTrace` holds every flow
at once; operators hold traces that do not fit.  This module streams
them instead:

- :class:`TraceChunk` / :class:`TraceStream` — a trace as an iterator
  of bounded arrival/departure chunks plus the up-front header
  (horizon, metadata) every consumer needs before the first flow.
- chunked persistence — the commented-header CSV, read and written
  chunk by chunk (:func:`open_trace_csv` / :func:`write_trace_csv`;
  :func:`read_trace` / :func:`write_trace` are in-memory views), and an
  npz *segment directory* (:func:`open_trace_npz` /
  :func:`write_trace_npz`): one ``index.json`` plus one compressed
  ``segment-NNNNN.npz`` per chunk, so a read never loads more than one
  segment.
- streaming census — :func:`stream_census_at` answers point queries by
  counting ``#{arrival <= t} - #{end <= t}`` per chunk, which equals
  the in-memory :func:`~repro.traces.census.census_at` *exactly*
  (integer counts, byte-identical for any chunk size), and
  :func:`stream_census_samples` replays the identical RNG draw as
  :func:`~repro.traces.census.census_samples`.

Memory is bounded by one chunk plus the query set, never by the flow
count; the replay engine (:mod:`repro.traces.replay`) adds the
time-ordered sweep that needs arrival-sorted streams.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import pathlib
import re
import sys
import zipfile
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import ModelError
from repro.ioutils import atomic_write_text
from repro.traces.format import FlowTrace, _flow_arrays

#: Default flows per chunk: large enough to amortise numpy dispatch,
#: small enough that a chunk is a few MiB.
DEFAULT_CHUNK_FLOWS = 65536

#: Schema tag of the npz segment-directory index.
SEGMENT_SCHEMA = "repro.traces.segments/v1"

#: Index file name inside an npz segment directory.
SEGMENT_INDEX = "index.json"


@dataclass(frozen=True)
class TraceChunk:
    """A bounded run of flows: parallel arrival/departure arrays."""

    arrival: np.ndarray
    departure: np.ndarray

    def __post_init__(self):
        a, d = _flow_arrays(self.arrival, self.departure)
        object.__setattr__(self, "arrival", a)
        object.__setattr__(self, "departure", d)

    @classmethod
    def _of_valid(cls, arrival: np.ndarray, departure: np.ndarray) -> "TraceChunk":
        """A chunk of float arrays already checked as flows, not checked again.

        For slices of a :class:`FlowTrace`, which checked its flows once,
        and for the CSV reader's rows, whose parsers check every flow
        (and also refuse ``arrival = inf``); the check is most of what a
        one-flow chunk costs.
        """
        chunk = object.__new__(cls)
        object.__setattr__(chunk, "arrival", arrival)
        object.__setattr__(chunk, "departure", departure)
        return chunk

    def __len__(self) -> int:
        return len(self.arrival)


class TraceStream:
    """A flow trace as a one-shot iterator of :class:`TraceChunk`.

    The header (``horizon``, ``metadata``) is available before any
    chunk is consumed — exactly what the CSV/npz writers and the
    census/replay consumers need up front.  ``flows`` is the total
    count when the source knows it (persisted formats do; generators
    do not).  Iterating a second time raises: a stream is a tap, not a
    container — use :func:`materialize` (or re-open the source) when
    you need the flows twice.
    """

    def __init__(
        self,
        chunks: Iterable[TraceChunk],
        *,
        horizon: float,
        metadata: Optional[Dict[str, str]] = None,
        flows: Optional[int] = None,
    ):
        if not 0.0 < horizon < math.inf:
            raise ModelError(f"horizon must be finite and > 0, got {horizon!r}")
        self.horizon = float(horizon)
        self.metadata: Dict[str, str] = dict(metadata or {})
        self.flows = None if flows is None else int(flows)
        self._chunks = iter(chunks)
        self._consumed = False

    def __iter__(self) -> Iterator[TraceChunk]:
        if self._consumed:
            raise ModelError(
                "trace stream already consumed; streams are one-shot — "
                "re-open the source or materialize() the trace"
            )
        self._consumed = True
        for chunk in self._chunks:
            if len(chunk):
                yield chunk


def stream_trace(
    trace: FlowTrace, *, chunk_flows: int = DEFAULT_CHUNK_FLOWS
) -> TraceStream:
    """View an in-memory trace as an arrival-sorted chunked stream."""
    if chunk_flows < 1:
        raise ModelError(f"chunk_flows must be >= 1, got {chunk_flows!r}")
    order = np.argsort(trace.arrival, kind="stable")
    arrival = trace.arrival[order]
    departure = trace.departure[order]

    def chunks() -> Iterator[TraceChunk]:
        for lo in range(0, len(arrival), chunk_flows):
            hi = lo + chunk_flows
            yield TraceChunk._of_valid(arrival[lo:hi], departure[lo:hi])

    return TraceStream(
        chunks(),
        horizon=trace.horizon,
        metadata=dict(trace.metadata),
        flows=len(trace),
    )


def materialize(stream: TraceStream) -> FlowTrace:
    """Collect a stream into an in-memory :class:`FlowTrace`.

    The one operation here that is *not* constant-memory — for tests,
    small traces, and handing a stream to the in-memory pipeline.
    """
    arrivals: List[np.ndarray] = []
    departures: List[np.ndarray] = []
    for chunk in stream:
        arrivals.append(chunk.arrival)
        departures.append(chunk.departure)
    return FlowTrace(
        arrival=np.concatenate(arrivals) if arrivals else np.empty(0),
        departure=np.concatenate(departures) if departures else np.empty(0),
        horizon=stream.horizon,
        metadata=stream.metadata,
    )


def _slabs(
    stream: TraceStream, floor: Callable[[], int]
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The stream's flows as ``(arrival, departure)`` slabs of >= ``floor()`` flows.

    A streaming fold costs, per call, work that grows with what it
    holds across calls (pending departures it merges, query times it
    searches).  The consumer passes that size as ``floor``, read as
    each chunk arrives, and chunks are buffered until they reach it, so
    smaller chunks do not mean more of that work per flow.  A chunk that
    meets the floor alone is passed on without a copy; the last slab
    may fall short.  Buffered flows stay below ``floor()`` plus one
    chunk.
    """
    held: List[TraceChunk] = []
    flows = 0
    for chunk in stream:
        held.append(chunk)
        flows += len(chunk)
        if flows >= floor():
            yield _joined(held)
            held, flows = [], 0
    if held:
        yield _joined(held)


def _joined(chunks: List[TraceChunk]) -> Tuple[np.ndarray, np.ndarray]:
    """One slab's arrays: a lone chunk's own, else the concatenation."""
    if len(chunks) == 1:
        return chunks[0].arrival, chunks[0].departure
    return (
        np.concatenate([chunk.arrival for chunk in chunks]),
        np.concatenate([chunk.departure for chunk in chunks]),
    )


# -- streaming census ---------------------------------------------------


def _query_times(query_times, horizon: float) -> np.ndarray:
    """Query instants as floats; NaN or outside ``[0, horizon]`` is refused."""
    q = np.asarray(query_times, dtype=float)
    if not ((q >= 0.0) & (q <= horizon)).all():
        raise ModelError("query times must lie in [0, horizon]")
    return q


def stream_census_at(stream: TraceStream, query_times) -> np.ndarray:
    """Census at arbitrary instants, one pass over the stream.

    The census at ``t`` is ``#{arrival <= t} - #{min(departure,
    horizon) <= t}`` — the same counting the event-sorted
    :func:`~repro.traces.census.census_at` performs, so the integer
    results are byte-identical for any chunking of the same trace.
    Chunks are counted in slabs of at least as many flows as there
    are queries (:func:`_slabs`).  Memory is O(chunk + queries).
    """
    q = _query_times(query_times, stream.horizon)
    order = np.argsort(q, kind="stable")
    sq = q[order]
    counts = np.zeros(len(sq), dtype=np.int64)
    for arrival, departure in _slabs(stream, lambda: len(sq)):
        starts = np.sort(arrival)
        ends = np.sort(np.minimum(departure, stream.horizon))
        counts += np.searchsorted(starts, sq, side="right")
        counts -= np.searchsorted(ends, sq, side="right")
    out = np.empty(len(sq), dtype=np.int64)
    out[order] = counts
    return out


def stream_census_samples(
    stream: TraceStream,
    n: int,
    *,
    warmup: float = 0.0,
    seed: Optional[int] = None,
) -> np.ndarray:
    """``n`` time-uniform census samples over ``[warmup, horizon]``.

    The sample times come from ``np.random.default_rng(seed)``; they
    are answered in one pass by :func:`stream_census_at`.
    """
    if n < 1:
        raise ModelError(f"need n >= 1 samples, got {n!r}")
    if not 0.0 <= warmup < stream.horizon:
        raise ModelError(f"warmup must be in [0, horizon), got {warmup!r}")
    rng = np.random.default_rng(seed)
    ts = warmup + rng.random(n) * (stream.horizon - warmup)
    return stream_census_at(stream, ts).astype(int)


def stream_mean_census(stream: TraceStream, *, warmup: float = 0.0) -> float:
    """Time-average census over ``[warmup, horizon]``, one pass.

    Little's-law accounting: each flow contributes its overlap with the
    window, summed per chunk.  Agrees with the trajectory-based
    :func:`~repro.traces.census.mean_census` to float round-off (the
    summation order differs).
    """
    if not 0.0 <= warmup < stream.horizon:
        raise ModelError(f"warmup must be in [0, horizon), got {warmup!r}")
    total = 0.0
    for chunk in stream:
        seg_start = np.maximum(chunk.arrival, warmup)
        seg_end = np.minimum(chunk.departure, stream.horizon)
        total += float(np.maximum(0.0, seg_end - seg_start).sum())
    return total / (stream.horizon - warmup)


# -- chunked CSV --------------------------------------------------------

#: Lines per parse block: small enough that parsing never lifts a
#: replay's peak memory, large enough to amortise ``np.loadtxt``.
_PARSE_BLOCK_LINES = 8192

#: The csv quote, NUL (a csv error before Python 3.11) and the ASCII
#: separators ``np.loadtxt`` strips as whitespace but ``float`` refuses.
_ROW_PARSER_ONLY = '"\x00\x1c\x1d\x1e\x1f'

#: Bytes that are not UTF-8, as ``errors="surrogateescape"`` reads them.
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


def _utf8_line(line: str, line_no: int, path) -> str:
    if not line.isascii() and _NOT_UTF8.search(line):
        raise ModelError(f"trace file {path} line {line_no}: not UTF-8 text")
    return line


def _parse_flow_row(row: List[str], line_no: int, path) -> Tuple[float, float]:
    """One ``csv.reader`` row -> (arrival, departure): what a flow row is."""
    if len(row) < 2:
        raise ModelError(
            f"trace file {path} line {line_no}: expected "
            f"'arrival,departure', got {','.join(row)!r}"
        )
    try:
        arrival = float(row[0])
        departure = float(row[1])
    except ValueError:
        raise ModelError(
            f"trace file {path} line {line_no}: non-numeric flow row "
            f"{','.join(row)!r}"
        ) from None
    if not (0.0 <= arrival < math.inf and departure >= arrival):  # NaN fails too
        raise ModelError(
            f"trace file {path} line {line_no}: need 0 <= arrival <= "
            f"departure, got arrival={arrival!r} departure={departure!r}"
        )
    return arrival, departure


def _parse_block(block: List[str]) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """One ``np.loadtxt`` call over a block of plain flow rows, or None.

    None leaves the block to the row parser: a character that parser
    reads differently, a blank line (loadtxt skips it), a field over
    csv's size limit, or a flow it refuses.  Both round correctly.
    """
    text = "".join(block)
    if not text.isascii() or any(ch in text for ch in _ROW_PARSER_ONLY):
        return None
    if "\n\n" in text or text.startswith("\n") or max(map(len, block)) > csv.field_size_limit():
        return None
    try:
        rows = np.loadtxt(block, delimiter=",", comments=None, usecols=(0, 1), ndmin=2)
    except ValueError:
        return None
    a, d = rows[:, 0], rows[:, 1]
    if len(rows) != len(block) or not np.all((a >= 0.0) & (a < np.inf) & (d >= a)):
        return None
    return a, d


def _parse_rows(block: List[str], rest: Iterator[str], first_line: int, path):
    """The row parser over ``block``; returns its flows and lines read.

    A quoted field still open at the block's end reads on into ``rest``.
    """
    source = enumerate(itertools.chain(block, rest), start=first_line)
    reader = csv.reader(_utf8_line(line, n, path) for n, line in source)
    flows: List[Tuple[float, float]] = []
    try:
        while reader.line_num < len(block):
            line_no, row = first_line + reader.line_num, next(reader)
            if row and not row[0].startswith("#") and row[0] != "arrival":
                flows.append(_parse_flow_row(row, line_no, path))
    except csv.Error as exc:
        line_no = first_line + reader.line_num - 1
        raise ModelError(f"trace file {path} line {line_no}: {exc}") from None
    return tuple(np.array(flows, dtype=float).reshape(-1, 2).T), reader.line_num


def _flow_chunks(path: pathlib.Path, header_lines: int, chunk_flows: int) -> Iterator[TraceChunk]:
    """The flow rows after the header, in chunks of exactly ``chunk_flows`` but the last."""
    pending: List[Tuple[np.ndarray, np.ndarray]] = []
    held, first_line = 0, header_lines + 1
    with path.open(encoding="utf-8", errors="surrogateescape") as handle:
        for _ in itertools.islice(handle, header_lines):
            pass
        while block := list(itertools.islice(handle, _PARSE_BLOCK_LINES)):
            flows, read = _parse_block(block), len(block)
            if flows is None:
                flows, read = _parse_rows(block, handle, first_line, path)
            first_line += read
            pending.append(flows)
            held += len(flows[0])
            if held >= chunk_flows:
                a, d = (np.concatenate(column) for column in zip(*pending))
                cut = held - held % chunk_flows
                for lo in range(0, cut, chunk_flows):
                    yield TraceChunk._of_valid(a[lo : lo + chunk_flows], d[lo : lo + chunk_flows])
                pending, held = [(a[cut:], d[cut:])], held - cut
    if held:
        yield TraceChunk._of_valid(*(np.concatenate(column) for column in zip(*pending)))


def open_trace_csv(path, *, chunk_flows: int = DEFAULT_CHUNK_FLOWS) -> TraceStream:
    """Stream a commented-header CSV trace in bounded chunks.

    Reads what :func:`write_trace_csv` writes.  The header (``#`` and
    blank lines before the first data row, and that row too when its
    first field is the ``arrival`` column name) is read eagerly and
    needs a finite ``# horizon=`` > 0.  Flow rows are read lazily, a
    block of lines at a time (:func:`_flow_chunks`).  Bad input raises
    :class:`~repro.errors.ModelError` naming the file and line.
    """
    if chunk_flows < 1:
        raise ModelError(f"chunk_flows must be >= 1, got {chunk_flows!r}")
    path = pathlib.Path(path)
    horizon: Optional[float] = None
    metadata: Dict[str, str] = {}
    header_lines = 0
    with path.open(encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            text = _utf8_line(line, line_no, path).strip()
            if text and not text.startswith("#"):
                # the column-name row ends the header; the row parser
                # skips it too, so the first block stays loadtxt's
                if line.rstrip("\r\n").split(",", 1)[0] == "arrival":
                    header_lines = line_no
                break
            header_lines = line_no
            key, eq, value = text.lstrip("#").partition("=")
            if eq and key.strip() != "horizon":
                metadata[key.strip()] = value.strip()
            elif eq:
                try:
                    horizon = float(value)
                except ValueError:
                    horizon = math.nan
                if not 0.0 < horizon < math.inf:
                    raise ModelError(
                        f"trace file {path} line {line_no}: bad horizon "
                        f"{value!r}; need a finite number > 0"
                    )
    if horizon is None:
        raise ModelError(f"trace file {path} has no '# horizon=' header")
    chunks = _flow_chunks(path, header_lines, chunk_flows)
    return TraceStream(chunks, horizon=horizon, metadata=metadata)


def read_trace(path) -> FlowTrace:
    """Read a whole CSV trace: ``materialize(open_trace_csv(path))``."""
    return materialize(open_trace_csv(path))


def write_trace_csv(stream: TraceStream, path) -> pathlib.Path:
    """Write a stream as commented-header CSV, chunk by chunk.

    Times are written with :func:`repr` (shortest round-trip form,
    ``inf`` for an open flow), so a CSV round-trip preserves every flow
    bit-for-bit.  Rows end in CRLF, as ``csv.writer`` ends them.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    flows = 0
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.write(f"# horizon={stream.horizon!r}\n")
        for key, value in sorted(stream.metadata.items()):
            handle.write(f"# {key}={value}\n")
        handle.write("arrival,departure\r\n")
        for chunk in stream:
            rows = zip(chunk.arrival.tolist(), chunk.departure.tolist())
            handle.writelines(f"{a!r},{d!r}\r\n" for a, d in rows)
            flows += len(chunk)
    if obs.enabled():
        obs.counter("traces.write.flows").inc(flows)
    return path


def write_trace(trace: FlowTrace, path) -> pathlib.Path:
    """Write an in-memory trace as CSV, its flows in stored order."""
    chunk = TraceChunk(trace.arrival, trace.departure)
    stream = TraceStream([chunk], horizon=trace.horizon, metadata=trace.metadata)
    return write_trace_csv(stream, path)


# -- npz segment directories --------------------------------------------


def write_trace_npz(stream: TraceStream, path) -> pathlib.Path:
    """Persist a stream as an npz segment directory.

    Layout: ``path/index.json`` (schema, horizon, metadata, per-segment
    manifest) plus ``path/segment-NNNNN.npz`` files holding one chunk's
    float64 arrays each.  Writing consumes the stream one chunk at a
    time; the index lands last (atomically), so a crash can never leave
    a directory that parses as complete.
    """
    path = pathlib.Path(path)
    path.mkdir(parents=True, exist_ok=True)
    segments: List[Dict[str, object]] = []
    total = 0
    for i, chunk in enumerate(stream):
        name = f"segment-{i:05d}.npz"
        np.savez_compressed(
            path / name,
            arrival=chunk.arrival,
            departure=chunk.departure,
        )
        segments.append({"file": name, "flows": len(chunk)})
        total += len(chunk)
    index = {
        "schema": SEGMENT_SCHEMA,
        "horizon": stream.horizon,
        "metadata": stream.metadata,
        "flows": total,
        "segments": segments,
    }
    atomic_write_text(path / SEGMENT_INDEX, json.dumps(index, indent=2) + "\n")
    if obs.enabled():
        obs.counter("traces.write.flows").inc(total)
        obs.counter("traces.write.segments").inc(len(segments))
    return path


#: What reading a segment raises when it is not an npz of float arrays:
#: junk bytes, a truncated or corrupt zip, a plain ``.npy``, a missing
#: or non-numeric array.
_SEGMENT_ERRORS = (
    OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile, zlib.error
)


def _count(value) -> bool:
    """A JSON integer >= 0 (``true`` is not a count)."""
    return type(value) is int and value >= 0


def _plain_name(value) -> bool:
    """A file name inside the directory: no separator, not ``.`` or ``..``."""
    return (
        isinstance(value, str)
        and value not in ("", ".", "..")
        and not any(c in value for c in "/\\\0")
    )


def open_trace_npz(path) -> TraceStream:
    """Stream an npz segment directory, one segment in memory at a time.

    The index is checked on open and each segment as it is read; a
    malformed directory raises :class:`~repro.errors.ModelError`.
    """
    path = pathlib.Path(path)
    index_path = path / SEGMENT_INDEX
    if not index_path.is_file():
        raise ModelError(f"{path} is not a trace segment directory (no index.json)")

    def corrupt(what: str) -> ModelError:
        return ModelError(f"corrupt trace index {index_path}: {what}")

    try:
        index = json.loads(index_path.read_text())
    except ValueError as exc:
        raise corrupt(str(exc)) from None
    if not isinstance(index, dict):
        raise corrupt(f"a JSON {type(index).__name__}, not an object")
    if index.get("schema") != SEGMENT_SCHEMA:
        raise ModelError(
            f"{index_path}: schema {index.get('schema')!r} is not "
            f"{SEGMENT_SCHEMA!r}"
        )
    horizon = index.get("horizon")
    metadata = index.get("metadata", {})
    segments = index.get("segments")
    if type(horizon) not in (int, float) or not 0.0 < horizon <= sys.float_info.max:
        raise corrupt(f"horizon {horizon!r} is not a finite number > 0")
    if not _count(index.get("flows")):
        raise corrupt(f"flows {index.get('flows')!r} is not a count")
    if not isinstance(metadata, dict):
        raise corrupt("metadata is not an object")
    if not isinstance(segments, list) or not all(
        isinstance(seg, dict) and _plain_name(seg.get("file")) and _count(seg.get("flows"))
        for seg in segments
    ):
        raise corrupt("segments must list {file, flows} entries naming files in it")

    def chunks() -> Iterator[TraceChunk]:
        for seg in segments:
            seg_path = path / seg["file"]
            if not seg_path.is_file():
                raise ModelError(f"trace segment missing: {seg_path}")
            try:
                # np.load leaks the file it opened when the zip is bad
                with seg_path.open("rb") as handle:
                    data = np.load(handle)  # an ndarray for a plain .npy
                    if not isinstance(data, np.lib.npyio.NpzFile):
                        raise TypeError("not an npz archive")
                    chunk = TraceChunk(data["arrival"], data["departure"])
            except _SEGMENT_ERRORS:
                raise ModelError(
                    f"corrupt trace segment {seg_path}: not an npz of "
                    "arrival/departure float arrays"
                ) from None
            if len(chunk) != seg["flows"]:
                raise ModelError(
                    f"trace segment {seg_path} holds {len(chunk)} flows, "
                    f"index says {seg['flows']}"
                )
            yield chunk

    return TraceStream(
        chunks(),
        horizon=horizon,
        metadata={str(k): str(v) for k, v in metadata.items()},
        flows=index["flows"],
    )


def open_trace(path, *, chunk_flows: int = DEFAULT_CHUNK_FLOWS) -> TraceStream:
    """Open either persisted form by shape: directory -> npz, file -> CSV."""
    p = pathlib.Path(path)
    if p.is_dir():
        return open_trace_npz(p)
    return open_trace_csv(p, chunk_flows=chunk_flows)
