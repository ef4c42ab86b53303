"""Differential tests: the block-parsing CSV reader against the row parser.

The reference reads a trace file's data rows the way the reader's
fallback does, but in one pass over the whole file: ``csv.reader`` and
``_parse_flow_row``, one row at a time, with no parse blocks and no
``np.loadtxt``.  ``open_trace_csv`` must return the same flows bit for
bit, in chunks of exactly ``chunk_flows`` but the last, or raise the
same ModelError for the same line.
"""

import csv
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.traces import open_trace_csv, write_trace_csv
from repro.traces import stream as stream_module
from repro.traces.stream import TraceChunk, TraceStream, _parse_block, _parse_flow_row
from repro.verify.strategies import trace_chunk_sizes


def reference_flows(path):
    """(arrival, departure) of a trace file, read by the row parser alone."""
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        lines = list(handle)
    start = 0
    while start < len(lines) and (
        not lines[start].strip() or lines[start].strip().startswith("#")
    ):
        start += 1
    reader = csv.reader(lines[start:])
    arrivals, departures, row_start = [], [], 0
    try:
        for row in reader:
            line_no, row_start = start + 1 + row_start, reader.line_num
            if row and not row[0].startswith("#") and row[0] != "arrival":
                a, d = _parse_flow_row(row, line_no, path)
                arrivals.append(a)
                departures.append(d)
    except csv.Error as exc:
        raise ModelError(
            f"trace file {path} line {start + reader.line_num}: {exc}"
        ) from None
    return np.array(arrivals, dtype=float), np.array(departures, dtype=float)


_TIMES = st.one_of(
    st.floats(min_value=0.0, max_value=1e3),
    st.floats(min_value=0.0, max_value=1e300),
    st.sampled_from([0.0, 5e-324, 0.1 + 0.2, 1.0 / 3.0]),
)

_NON_ASCII_DIGITS = (0x0660, 0xFF10, 0x0966)  # Arabic-Indic, fullwidth, Devanagari


@st.composite
def spellings(draw, value, plain):
    """One way a CSV field can spell ``value``: the row parser reads them all."""
    text = "inf" if value == np.inf else repr(value)
    forms = ["repr", "padded", "quoted", "underscore", "digits", "exp"]
    form = "repr" if plain else draw(st.sampled_from(forms))
    if form == "padded":
        pad = st.text(alphabet=" \t\x0b\x0c", max_size=3)
        return draw(pad) + text + draw(pad)
    if form == "quoted":
        return f'"{text}"'
    if form == "underscore":
        for i in range(1, len(text)):
            if text[i - 1].isdigit() and text[i].isdigit():
                return text[:i] + "_" + text[i:]
        return text
    if form == "digits":
        zero = draw(st.sampled_from(_NON_ASCII_DIGITS))
        return "".join(chr(zero + int(c)) if c.isdigit() else c for c in text)
    if form == "exp" and value != np.inf:
        return draw(st.sampled_from(["{:.17e}", "{:.17E}", "{:.17g}"])).format(value)
    if value == np.inf:
        return draw(st.sampled_from(["inf", "Infinity", "INF", "+inf"]))
    return text


@st.composite
def flow_rows(draw, plain=False):
    """A valid flow row, spelled any way the format allows; 1 or 2 lines.

    A plain row is what the writer writes.
    """
    arrival = draw(_TIMES)
    departure = draw(
        st.one_of(st.just(np.inf), st.floats(min_value=arrival, max_value=2e300))
    )
    row = f"{draw(spellings(arrival, plain))},{draw(spellings(departure, plain))}"
    if plain:
        return [row]
    extra = draw(st.sampled_from(["", ",", ",x", ",1,2", ',"q,r"', ", "]))
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(_OPEN_QUOTES))
    return [row + extra]


#: Rows whose quoted field is still open at the line's end: the row reads
#: on into the next line, which may itself look like a flow row.
_OPEN_QUOTES = [['1.0,"2.5', '",9'], ['1.0,2.5,"', '3.0,4.0,"']]


#: Lines the reader skips: blank, comments, repeated column names.
_SKIPPED = ["", "# comment", "#a,b", "# horizon=99", "arrival,departure", '"arrival",departure']

#: Lines the row parser refuses, and lines numpy might read differently.
_MALFORMED = [
    "0.5", "a,b", "2.0,1.0", "-1.0,3.0", "1.0,nan", "nan,1.0", "inf,inf",
    "0x10,0x20", "1\x1c,2", "1,2\x1d", "\x1e1,2", "1,2\x1f,3", "1,,2", " ,1",
    "1 0,2", "1,2 # c", "  ", "\x0b", "1,2\x00", "1,2,\x00", "1,-0x1p3",
    "1,2," + "x" * 131073, '1,"2', '"1', "1,2_", "1__0,2", "-0.0,-0.0",
]


#: Characters a one-line row is drawn from: number syntax, separators,
#: whitespace that only one of the two parsers strips, quotes, NUL.
_RISKY_CHARACTERS = '0123456789.eE+-_,x \t\x0b\x0c\x1c\x1f\x00"#infatyINF\xa0\u0661'


@st.composite
def trace_files(draw):
    """(parse block size, file bytes): a trace with up to two odd items.

    Half the files hold plain rows only, so whole parse blocks reach
    ``np.loadtxt``.  Each odd item, a bad row or a row with a quote left
    open, starts at the first or the last line of a parse block, where a
    block boundary could hide it.
    """
    block_lines = draw(st.one_of(st.integers(1, 8), st.just(8192)))
    if draw(st.booleans()):
        one_item = flow_rows(plain=True)
    else:
        one_item = st.one_of(flow_rows(), st.sampled_from(_SKIPPED).map(lambda line: [line]))
    size = draw(st.integers(0, 60))
    items = draw(st.lists(one_item, min_size=size, max_size=size))
    # the column names end the header, so blocks start at lines[0]
    lines = ["arrival,departure"] + [line for item in items for line in item]
    for _ in range(draw(st.integers(0, 2))):
        block = draw(st.integers(0, len(lines) // block_lines))
        at = block * block_lines + draw(st.sampled_from([0, block_lines - 1]))
        at = min(at, len(lines))
        bad_rows = st.sampled_from(_MALFORMED).map(lambda line: [line])
        lines[at:at] = draw(st.one_of(bad_rows, st.sampled_from(_OPEN_QUOTES)))
    header = ["# horizon=12.5", "# site=edge"] + draw(st.sampled_from([[], [""]]))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ending.join(header + lines) + draw(st.sampled_from([ending, ""]))
    return block_lines, text.encode("utf-8")


def _outcome(read, path):
    try:
        return read(path)
    except ModelError as exc:
        return str(exc)


class TestReaderMatchesRowParser:
    @given(case=trace_files(), chunk_flows=trace_chunk_sizes())
    @settings(
        max_examples=250,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_same_flows_or_same_error(self, tmp_path, case, chunk_flows):
        block_lines, data = case
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        expected = _outcome(reference_flows, path)
        with mock.patch.object(stream_module, "_PARSE_BLOCK_LINES", block_lines):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # e.g. loadtxt on blank lines
                got = _outcome(lambda p: list(open_trace_csv(p, chunk_flows=chunk_flows)), path)
        if isinstance(expected, str) or isinstance(got, str):
            assert got == expected
            return
        sizes = [len(chunk) for chunk in got]
        assert all(n == chunk_flows for n in sizes[:-1])
        assert not sizes or 0 < sizes[-1] <= chunk_flows
        for i, column in enumerate(("arrival", "departure")):
            flows = [getattr(chunk, column) for chunk in got]
            merged = np.concatenate(flows) if flows else np.empty(0)
            assert merged.tobytes() == expected[i].tobytes()

    def test_quote_open_at_a_block_end_keeps_line_numbers(self, tmp_path):
        # lines 3-4 are one csv row whose quote opens on the last line of
        # the first two-line parse block; the bad row is line 6
        path = tmp_path / "t.csv"
        path.write_text('# horizon=9\narrival,departure\n1,2,"x\n3,4,"\n5,6\nbad,row\n')
        with mock.patch.object(stream_module, "_PARSE_BLOCK_LINES", 2):
            with pytest.raises(ModelError, match=r"t\.csv line 6: non-numeric"):
                list(open_trace_csv(path))

    @given(
        line=st.one_of(
            flow_rows().map(lambda rows: rows[0]),
            st.sampled_from(_MALFORMED + _SKIPPED),
            st.text(alphabet=_RISKY_CHARACTERS, max_size=12),
        )
    )
    @settings(max_examples=500, deadline=None)
    def test_block_parser_takes_only_rows_the_row_parser_accepts(self, line):
        parsed = _parse_block([line + "\n"])
        if parsed is None:
            return
        row = next(csv.reader([line + "\n"]))
        arrival, departure = _parse_flow_row(row, 1, "t.csv")
        assert parsed[0].tobytes() == np.array([arrival]).tobytes()
        assert parsed[1].tobytes() == np.array([departure]).tobytes()


class TestWrittenTraces:
    def test_written_file_never_reaches_the_row_parser(self, tmp_path):
        # write_trace_csv always writes the 'arrival,departure' column
        # row; the header scan takes it, so every block of a written
        # file goes to np.loadtxt and none to the csv-module row parser
        rng = np.random.default_rng(3)
        arrival = np.sort(rng.uniform(0.0, 50.0, 5000))
        departure = arrival + rng.exponential(1.0, 5000)
        stream = TraceStream(
            [TraceChunk(arrival, departure)], horizon=60.0, metadata={"k": "v"}
        )
        path = write_trace_csv(stream, tmp_path / "t.csv")
        with mock.patch.object(stream_module, "_PARSE_BLOCK_LINES", 1000):
            with mock.patch.object(
                stream_module, "_parse_rows", wraps=stream_module._parse_rows
            ) as spy:
                reread = open_trace_csv(path, chunk_flows=777)
                chunks = list(reread)
        assert spy.call_count == 0
        assert reread.metadata == {"k": "v"}
        got = np.concatenate([c.arrival for c in chunks])
        assert got.tobytes() == arrival.tobytes()
        got = np.concatenate([c.departure for c in chunks])
        assert got.tobytes() == departure.tobytes()
