"""Parsing, validation, gap filling, splitting, CSV and client behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_series
from drltrade.errors import (
    EmptyInput,
    EmptyRange,
    InvariantViolation,
    MalformedRow,
    NetworkError,
    RateLimited,
    TooShort,
)
from drltrade.market_data import (
    CSV_HEADER,
    FOUR_HOURS_MS,
    BinanceClient,
    fill_gaps,
    load_klines_csv,
    parse_klines,
    save_klines_csv,
    split_train_test,
)
from oracles import brute_parse_klines

H = FOUR_HOURS_MS


def exchange_row(t, o, h, l, c, v):
    """Array-style payload row: decimal strings plus trailing extras."""
    return [t, str(o), str(h), str(l), str(c), str(v), t + H - 1, "0", 0, "0", "0", "0"]


def test_parse_exchange_rows_with_string_decimals():
    rows = [exchange_row(H * i, 10.0, 11.0, 9.0, 10.5, 3.25) for i in range(3)]
    series = parse_klines(rows, symbol="ETHUSDT")
    assert len(series) == 3
    assert series.symbol == "ETHUSDT"
    assert series.opens[0] == 10.0 and series.closes[0] == 10.5
    assert series.closes.dtype == np.float64


def test_parse_sorts_by_open_time():
    rows = [
        exchange_row(2 * H, 10, 11, 9, 10, 1),
        exchange_row(0, 10, 11, 9, 10, 1),
        exchange_row(H, 10, 11, 9, 10, 1),
    ]
    series = parse_klines(rows)
    assert list(series.open_times) == [0, H, 2 * H]


def test_parse_empty_raises():
    with pytest.raises(EmptyInput):
        parse_klines([])


def test_parse_rejects_short_row():
    with pytest.raises(MalformedRow):
        parse_klines([[0, "1", "2"]])


def test_parse_rejects_non_numeric():
    with pytest.raises(MalformedRow):
        parse_klines([[0, "1", "2", "x", "1.5", "3"]])


def test_parse_rejects_missing_mapping_key():
    with pytest.raises(MalformedRow):
        parse_klines([{"open_time": 0, "open": "1"}])


def test_parse_refuses_mapping_rows():
    rows = [dict(zip(CSV_HEADER, [H, "2", "3", "1", "2.5", "7"]))]
    with pytest.raises(MalformedRow, match="unsupported row type dict"):
        parse_klines(rows)


@pytest.mark.parametrize(
    "o,h,l,c,v",
    [
        (-1.0, 2.0, 0.5, 1.0, 1.0),  # negative open
        (1.0, 2.0, 0.5, 0.0, 1.0),  # zero close
        (1.0, 0.9, 0.5, 1.0, 1.0),  # high below open
        (1.0, 2.0, 1.5, 1.2, 1.0),  # low above close
        (1.0, 2.0, 0.5, 1.0, -3.0),  # negative volume
        (float("nan"), 2.0, 0.5, 1.0, 1.0),  # non-finite
    ],
)
def test_bar_validation_rejects(o, h, l, c, v):
    with pytest.raises(InvariantViolation):
        parse_klines([[0, o, h, l, c, v]])


def test_bar_validation_names_first_bad_bar_in_input_order():
    rows = [
        exchange_row(2 * H, 10, 11, 9, 10, 1),
        exchange_row(H, 10, 11, 9, 10, -1),  # first bad row in input order
        exchange_row(0, -10, 11, 9, 10, 1),  # first bad bar in time order
    ]
    with pytest.raises(InvariantViolation, match="volume="):
        parse_klines(rows)


def test_fill_gaps_inserts_forward_filled_bars():
    times = np.array([0, 3 * H], dtype=np.int64)
    prices = np.array([[10.0, 10.0], [11.0, 11.0], [9.0, 9.0], [10.5, 10.0], [1.0, 1.0]])
    out_times, out, idx = fill_gaps(times, prices, H)
    assert out.shape == (5, 4)
    assert idx == (1, 2)
    assert list(out_times) == [0, H, 2 * H, 3 * H]
    for i in (1, 2):
        assert np.all(out[:4, i] == 10.5)
        assert out[4, i] == 0.0
    assert np.array_equal(out[:, [0, 3]], prices)


def test_fill_gaps_rejects_duplicates_and_misalignment():
    prices = np.ones((5, 2))
    with pytest.raises(InvariantViolation, match="duplicate"):
        fill_gaps(np.array([0, 0]), prices, H)
    with pytest.raises(InvariantViolation, match="not aligned"):
        fill_gaps(np.array([0, H + 1]), prices, H)


def test_parse_gap_flags_survive_split(rng):
    rows = [exchange_row(i * H, 10, 11, 9, 10, 1) for i in (0, 1, 4, 5)]
    series = parse_klines(rows)
    assert len(series) == 6
    assert series.filled_indices == (2, 3)
    train, test = split_train_test(series, 0.5)
    assert train.filled_indices == (2,)
    assert test.filled_indices == (0,)


def test_split_floor_fraction(rng):
    series = make_random_series(rng, 101)
    train, test = split_train_test(series, 0.95)
    assert len(train) == 95  # floor(101 * 0.95)
    assert len(test) == 6
    assert train.open_times[-1] < test.open_times[0]


def test_split_rejects_bad_inputs(rng):
    series = make_random_series(rng, 10)
    with pytest.raises(ValueError):
        split_train_test(series, 1.0)
    with pytest.raises(TooShort):
        split_train_test(make_random_series(rng, 1), 0.5)


def test_csv_round_trip_is_exact(rng, tmp_path):
    series = make_random_series(rng, 50)
    path = tmp_path / "klines.csv"
    save_klines_csv(series, path)
    loaded = load_klines_csv(path, symbol=series.symbol)
    assert len(loaded) == len(series)
    for a, b in zip(series.columns(), loaded.columns()):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)  # repr round-trips floats bit for bit


def test_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,o,h,l,c,v\n0,1,2,0.5,1,1\n")
    with pytest.raises(MalformedRow):
        load_klines_csv(path)


def test_csv_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(EmptyInput):
        load_klines_csv(path)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60))
def test_random_series_parse_round_trip(seed, n):
    rng = np.random.default_rng(seed)
    series = make_random_series(rng, n)
    rows = [list(row) for row in zip(*(c.tolist() for c in series.columns()))]
    parsed = parse_klines(rows, symbol="RND")
    diffs = np.diff(parsed.open_times)
    assert np.all(diffs == FOUR_HOURS_MS)
    assert len(parsed) == n


FAULTS = (
    "empty", "short", "non_numeric", "none_field", "missing_key", "bad_price",
    "bad_volume", "non_finite", "swap_high_low", "duplicate", "misaligned",
)


def inject_fault(rows, fault, rng):
    """Break one intact row (or the whole input) the way ``fault`` names."""
    intact = [k for k, row in enumerate(rows)
              if len(row) == 6 and all(isinstance(v, (int, float)) for v in row)]
    if fault == "empty":
        return []
    if not intact:
        return rows
    i = intact[int(rng.integers(len(intact)))]
    row = rows[i]
    if fault in ("short", "missing_key"):
        rows[i] = row[: int(rng.integers(0, 6))]
    elif fault == "non_numeric":
        row[int(rng.integers(0, 6))] = "x"
    elif fault == "none_field":
        row[int(rng.integers(0, 6))] = None
    elif fault == "bad_price":
        row[int(rng.integers(1, 5))] *= float(rng.choice([-1.0, 0.0]))
    elif fault == "bad_volume":
        row[5] = -1.0 - row[5]
    elif fault == "non_finite":
        row[int(rng.integers(1, 6))] = float(rng.choice([np.nan, np.inf, -np.inf]))
    elif fault == "swap_high_low":
        row[2], row[3] = row[3], row[2]
    elif fault == "duplicate":
        rows.append(list(row))
    elif fault == "misaligned":
        row[0] += int(rng.integers(1, H))
    return rows


def as_form(rows, form):
    if form == "exchange":
        return [
            [repr(v) if isinstance(v, float) else v for v in row]
            + ([0, "0"] if len(row) == 6 else [])
            for row in rows
        ]
    return rows


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 30),
    keep=st.floats(0.3, 1.0),
    form=st.sampled_from(["list", "exchange"]),
    faults=st.lists(st.sampled_from(FAULTS), max_size=2),
)
def test_parse_matches_per_bar_reference(seed, n, keep, form, faults):
    """Shuffled rows with random gaps parse to the reference's arrays and flags;
    broken input raises the reference's error class and, for a bad bar, the
    reference's message, which names the first bad bar in input order."""
    rng = np.random.default_rng(seed)
    series = make_random_series(rng, n)
    rows = [list(row) for row in zip(*(c.tolist() for c in series.columns()))]
    kept = rng.random(n) < keep
    kept[0] = True
    rows = [row for row, k in zip(rows, kept) if k]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    for fault in faults:
        rows = inject_fault(rows, fault, rng)
    rows = as_form(rows, form)
    try:
        bars, filled = brute_parse_klines(rows, H)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            parse_klines(rows, interval_ms=H)
        assert type(got.value) is type(exc)
        if isinstance(exc, InvariantViolation):
            assert str(got.value) == str(exc)
        return
    parsed = parse_klines(rows, symbol="RND", interval_ms=H)
    want = [np.array(col, dtype=np.int64 if k == 0 else np.float64)
            for k, col in enumerate(zip(*bars))]
    for got_col, want_col in zip(parsed.columns(), want):
        assert got_col.dtype == want_col.dtype
        assert got_col.tobytes() == want_col.tobytes()
    assert parsed.filled_indices == filled


def test_series_slice_keeps_views_and_shifts_flags():
    rows = [exchange_row(i * H, 10, 11, 9, 10, 1) for i in (0, 1, 4, 5, 8)]
    series = parse_klines(rows)
    assert series.filled_indices == (2, 3, 6, 7)
    part = series[3:7]
    assert len(part) == 4 and part.filled_indices == (0, 3)
    assert np.shares_memory(part.closes, series.closes)
    assert len(series[7:3]) == 0
    with pytest.raises(TypeError):
        series[0]
    with pytest.raises(ValueError):
        series[::2]


def test_save_writes_plain_float_reprs(tmp_path):
    series = parse_klines([exchange_row(0, 0.1, 0.30000000000000004, 0.1, 0.2, 1e-05)])
    path = tmp_path / "k.csv"
    save_klines_csv(series, path)
    assert path.read_bytes() == (
        b"open_time,open,high,low,close,volume\r\n0,0.1,0.30000000000000004,0.1,0.2,1e-05\r\n"
    )


class ScriptedTransport:
    """Feeds a fixed sequence of (status, body) responses and records calls."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def __call__(self, url, params, timeout):
        self.calls.append(dict(params))
        status, body = self.responses.pop(0)
        if status == "raise":
            raise NetworkError("boom")
        return status, body


def page(start, count):
    return [exchange_row(start + i * H, 10, 11, 9, 10, 1) for i in range(count)]


def test_client_paginates_until_short_page():
    transport = ScriptedTransport([(200, page(0, 3)), (200, page(3 * H, 2))])
    client = BinanceClient(transport=transport, page_limit=3, sleep=lambda s: None)
    series = client.fetch_klines("ETHUSDT", "4h", 0, 10 * H)
    assert len(series) == 5
    assert transport.calls[0]["startTime"] == 0
    assert transport.calls[1]["startTime"] == 3 * H
    assert transport.calls[0]["endTime"] == 10 * H - 1


def test_client_retries_server_errors_with_backoff():
    transport = ScriptedTransport([(500, None), (502, None), (200, page(0, 1))])
    sleeps = []
    client = BinanceClient(transport=transport, backoff_base=0.5, sleep=sleeps.append)
    series = client.fetch_klines("ETHUSDT", "4h", 0, H)
    assert len(series) == 1
    assert sleeps == [0.5, 1.0]  # exponential doubling


def test_client_rate_limit_exhausts_to_error():
    transport = ScriptedTransport([(429, None)] * 4)
    client = BinanceClient(transport=transport, max_retries=3, sleep=lambda s: None)
    with pytest.raises(RateLimited):
        client.fetch_klines("ETHUSDT", "4h", 0, H)
    assert len(transport.calls) == 4


def test_client_fails_fast_on_client_error():
    transport = ScriptedTransport([(404, None)])
    client = BinanceClient(transport=transport, sleep=lambda s: None)
    with pytest.raises(NetworkError):
        client.fetch_klines("ETHUSDT", "4h", 0, H)
    assert len(transport.calls) == 1


def test_client_retries_transport_exceptions():
    transport = ScriptedTransport([("raise", None), (200, page(0, 1))])
    client = BinanceClient(transport=transport, sleep=lambda s: None)
    assert len(client.fetch_klines("ETHUSDT", "4h", 0, H)) == 1


def test_client_empty_range_and_empty_result():
    client = BinanceClient(transport=ScriptedTransport([]), sleep=lambda s: None)
    with pytest.raises(EmptyRange):
        client.fetch_klines("ETHUSDT", "4h", H, H)
    client = BinanceClient(transport=ScriptedTransport([(200, [])]), sleep=lambda s: None)
    with pytest.raises(EmptyRange):
        client.fetch_klines("ETHUSDT", "4h", 0, H)


def test_client_rejects_unknown_interval():
    client = BinanceClient(transport=ScriptedTransport([]))
    with pytest.raises(ValueError):
        client.fetch_klines("ETHUSDT", "7h", 0, H)
