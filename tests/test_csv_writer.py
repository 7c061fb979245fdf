"""write_csv: the bytes of csv.writer, formatted and written a chunk at a time."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_series
from drltrade import cli, market_data
from drltrade.errors import MalformedRow
from drltrade.market_data import (
    CSV_HEADER,
    FOUR_HOURS_MS,
    load_klines_csv,
    parse_klines,
    save_klines_csv,
    write_csv,
)
from oracles import brute_parse_klines, reference_csv
from test_cli import write_config

EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 2.225e-308,
               1e16, 1e-05, 0.1, 1e22, 1e308]
FLOATS = st.floats() | st.sampled_from(EDGE_FLOATS)
NUMBERS = st.one_of(
    FLOATS,
    FLOATS.map(np.float64),
    st.integers(min_value=-(2**70), max_value=2**70) | st.sampled_from([2**63, -(2**63) - 1]),
)
# Text that csv.writer quotes (a comma, a quote, a line break) or writes bare.
TEXT = st.text(max_size=8) | st.sampled_from(
    ["", ",", '"', "\n", "\r", "\r\n", "a,b", 'say "hi"', "buy", " ", "nan"]
)
CELLS = NUMBERS | TEXT


@st.composite
def tables(draw, cells):
    width = draw(st.integers(1, 6))
    header = draw(st.lists(TEXT, min_size=width, max_size=width))
    row = st.lists(cells, min_size=width, max_size=width).map(tuple)
    return header, draw(st.lists(row, max_size=12))


def assert_matches_reference(path, header, rows, chunk_rows):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(market_data, "CSV_CHUNK_ROWS", chunk_rows)
        write_csv(path, header, iter(rows))
    assert path.read_bytes() == reference_csv(header, rows).encode()


@settings(max_examples=300, deadline=None)
@given(tables(CELLS), st.sampled_from([1, 2, 5, 128]))
def test_matches_csv_writer_bytes(tmp_path_factory, table, chunk_rows):
    header, rows = table
    assert_matches_reference(tmp_path_factory.getbasetemp() / "t.csv", header, rows, chunk_rows)


@settings(max_examples=200, deadline=None)
@given(tables(NUMBERS), st.sampled_from([1, 3, 128]))
def test_numeric_tables_match_csv_writer_bytes(tmp_path_factory, table, chunk_rows):
    header, rows = table
    assert_matches_reference(tmp_path_factory.getbasetemp() / "n.csv", header, rows, chunk_rows)


@pytest.mark.parametrize(
    "header,rows",
    [
        (["step"], [("",), (1,), ("",), (math.nan,)]),
        ([""], [("",)]),
        (["a", "b"], [("", ""), ("", 1.5), (np.float64(0.1), 2**64)]),
        (["a", "b"], [(1.0, "x,y"), (2.0, 'q"'), (3.0, "l\nm"), (4.0, "r\r"), (5.0, "")]),
        (["a", "b,c", 'd"'], [(-0.0, 5e-324, 1e16), (math.inf, -math.inf, math.nan)]),
        (["x", "y"], []),
    ],
)
def test_edge_tables_match_csv_writer_bytes(tmp_path, header, rows):
    for chunk_rows in (1, 2, 128):
        assert_matches_reference(tmp_path / "e.csv", header, rows, chunk_rows)


def test_rows_need_one_cell_per_column(tmp_path):
    for row in ((1.0,), (1.0, 2.0, 3.0)):
        with pytest.raises(TypeError):
            write_csv(tmp_path / "w.csv", ["a", "b"], [row])


class RecordingFile(io.StringIO):
    """A text file that keeps the size of every chunk passed to ``write``."""

    def __init__(self):
        super().__init__()
        self.chunks = []

    def write(self, text):
        self.chunks.append(len(text))
        return super().write(text)

    def close(self):
        self.text = self.getvalue()
        super().close()


def test_klines_are_written_in_chunks(monkeypatch, rng, tmp_path):
    series = make_random_series(rng, 5000)
    files = []

    def recording_open(path, mode, newline=None):
        files.append(RecordingFile())
        return files[-1]

    monkeypatch.setattr(market_data, "open", recording_open, raising=False)
    save_klines_csv(series, tmp_path / "k.csv")
    (fh,) = files
    rows = zip(*(column.tolist() for column in series.columns()))
    assert fh.text == reference_csv(CSV_HEADER, rows)
    assert len(fh.chunks) == 1 + math.ceil(5000 / market_data.CSV_CHUNK_ROWS)
    assert max(fh.chunks) < len(fh.text) / 4


def test_fetch_from_csv_with_gaps_writes_the_reference_rendering(tmp_path):
    rng = np.random.default_rng(3)
    times = np.flatnonzero(rng.random(90) < 0.7) * FOUR_HOURS_MS
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, len(times))))
    rows = [(int(t), c, c * 1.01, c * 0.99, c, float(v))
            for t, c, v in zip(times, closes, rng.lognormal(3.0, 1.0, len(times)))]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    source = tmp_path / "source.csv"
    source.write_text(reference_csv(CSV_HEADER, rows), newline="")
    bars, filled = brute_parse_klines(rows, FOUR_HOURS_MS)
    assert filled  # the source has gaps to fill
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "c.json", out, data={"csv": str(source)})
    assert cli.main(["--config", str(cfg), "fetch"]) == cli.EXIT_OK
    assert (out / "data" / "klines.csv").read_bytes() == reference_csv(CSV_HEADER, bars).encode()
    assert json.loads((out / "config_resolved.json").read_text())["data"] == {"csv": str(source)}


@pytest.mark.parametrize(
    "rows,message",
    [
        ([[0, "1", "2"]], "row has 3 fields, need 6: [0, '1', '2']"),
        ([(0, "1", "2")], "row has 3 fields, need 6: (0, '1', '2')"),
        ([range(3)], "row has 3 fields, need 6: range(0, 3)"),
        ([[0, "1", "2", "x", "1.5", "3"]], "non-numeric field in row [0, '1', '2', 'x', '1.5', '3']"),
        ([(0, "1", "2", "x", "1.5", "3")], "non-numeric field in row (0, '1', '2', 'x', '1.5', '3')"),
        ([[0, "1", "2", "1", "1", None]], "non-numeric field in row [0, '1', '2', '1', '1', None]"),
        ([{"open_time": 0, "open": "1"}], "unsupported row type dict: {'open_time': 0, 'open': '1'}"),
        (["0,1,2,1,1,1"], "unsupported row type str: '0,1,2,1,1,1'"),
        ([b"abc"], "unsupported row type bytes: b'abc'"),
        ([5], "unsupported row type int: 5"),
    ],
)
def test_malformed_rows_keep_their_messages(rows, message):
    with pytest.raises(MalformedRow) as got:
        parse_klines(rows)
    assert str(got.value) == message


def test_malformed_csv_rows_keep_their_messages(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("open_time,open,high,low,close,volume\n0,1,2\n")
    with pytest.raises(MalformedRow, match=r"^row has 3 fields, need 6: \['0', '1', '2'\]$"):
        load_klines_csv(path)
    path.write_text("open_time,open,high,low,close,volume\n0,1,2,x,1,1\n")
    with pytest.raises(MalformedRow, match=r"^non-numeric field in row \['0', '1', '2', 'x', '1', '1'\]$"):
        load_klines_csv(path)
