"""Fetching, parsing, validating and splitting historical OHLCV candle series.

A candle ("kline") is one open/high/low/close/volume bar for a fixed interval.
Raw rows come either from the exchange REST payload (arrays with decimal-string
prices) or from CSV fixtures; both funnel through :func:`parse_klines`, which
sorts, validates and forward-fills interval gaps so downstream indicator code
can assume a contiguous series. A series holds one array per field, never an
object per bar: rows are converted column by column, and validation, sorting,
gap filling and splitting are array operations.

:func:`write_csv` writes every CSV artifact of a run: the klines here, and the
annotated backtest series, the GAIL expert pairs and the training logs.
"""

from __future__ import annotations

import csv
import math
import re
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import (
    EmptyInput,
    EmptyRange,
    InvariantViolation,
    MalformedRow,
    NetworkError,
    RateLimited,
    TooShort,
)

FOUR_HOURS_MS = 4 * 60 * 60 * 1000

INTERVAL_MS = {
    "1m": 60_000,
    "3m": 180_000,
    "5m": 300_000,
    "15m": 900_000,
    "30m": 1_800_000,
    "1h": 3_600_000,
    "2h": 7_200_000,
    "4h": FOUR_HOURS_MS,
    "6h": 21_600_000,
    "8h": 28_800_000,
    "12h": 43_200_000,
    "1d": 86_400_000,
}

CSV_HEADER = ["open_time", "open", "high", "low", "close", "volume"]
# Rows formatted into one string and written at once. 1024 rows were no
# faster, and raised the peak RSS of a 10k-bar fetch-train-backtest loop by
# 0.5 MB; at 128 it stays where the csv module's writer left it.
CSV_CHUNK_ROWS = 128
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


@dataclass(eq=False)
class KlineSeries:
    """Time-ordered, gapless candle series for one market pair, one array per field.

    ``open_times`` is int64 and the five price and volume columns are float64,
    all of one length. Prices are quote currency per base unit.
    ``filled_indices`` marks bars synthesized by the gap policy (previous close
    copied into OHLC, volume zero); the CSV form does not carry the flags.
    Slicing (``series[a:b]``) gives a series of views into the same arrays.
    """

    symbol: str
    interval_ms: int
    open_times: np.ndarray
    opens: np.ndarray
    highs: np.ndarray
    lows: np.ndarray
    closes: np.ndarray
    volumes: np.ndarray
    filled_indices: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.open_times)

    def __getitem__(self, index: slice) -> "KlineSeries":
        if not isinstance(index, slice):
            raise TypeError("index a KlineSeries with a slice; read bars from its arrays")
        bars = range(len(self))[index]
        if bars.step != 1:
            raise ValueError(f"slice step must be 1, got {bars.step}")
        start, stop = bars.start, max(bars.start, bars.stop)
        return KlineSeries(
            self.symbol,
            self.interval_ms,
            *(column[start:stop] for column in self.columns()),
            filled_indices=tuple(i - start for i in self.filled_indices if start <= i < stop),
        )

    def columns(self) -> tuple[np.ndarray, ...]:
        """The six arrays in ``CSV_HEADER`` order."""
        return (self.open_times, self.opens, self.highs, self.lows, self.closes, self.volumes)


def _row_fields(row) -> Sequence:
    """The raw ``CSV_HEADER`` fields of one row; a sequence may carry extras after them."""
    if type(row) is list and len(row) >= 6:  # csv.reader and exchange rows
        return row
    if isinstance(row, Sequence) and not isinstance(row, (str, bytes)):
        if len(row) < 6:
            raise MalformedRow(f"row has {len(row)} fields, need 6: {row!r}")
        return row
    raise MalformedRow(f"unsupported row type {type(row).__name__}: {row!r}")


def _converts(fields: Sequence) -> bool:
    try:
        int(fields[0])
        [float(v) for v in fields[1:6]]
    except (TypeError, ValueError):
        return False
    return True


def check_bars(open_times: np.ndarray, prices: np.ndarray) -> None:
    """Raise InvariantViolation for the first bar, in array order, that is not a
    positive finite OHLC with low <= open/close <= high and a finite volume >= 0.

    ``prices`` is the (5, n) block of open, high, low, close and volume rows.
    """
    o, h, l, c, v = prices
    good = (
        np.isfinite(prices).all(axis=0)
        & (prices[:4] > 0.0).all(axis=0)
        & (v >= 0.0)
        & (l <= np.minimum(o, c))
        & (np.maximum(o, c) <= h)
    )
    if good.all():
        return
    i = int(np.argmin(good))
    o, h, l, c, v = prices[:, i].tolist()
    for name, value in zip(CSV_HEADER[1:5], (o, h, l, c)):
        if not math.isfinite(value) or value <= 0.0:
            raise InvariantViolation(f"{name}={value!r} must be a positive finite price")
    if not math.isfinite(v) or v < 0.0:
        raise InvariantViolation(f"volume={v!r} must be finite and >= 0")
    raise InvariantViolation(
        f"bar at {open_times[i]} breaks low <= open/close <= high: o={o} h={h} l={l} c={c}"
    )


def fill_gaps(
    open_times: np.ndarray, prices: np.ndarray, interval_ms: int
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Insert forward-filled bars wherever consecutive open_times skip intervals.

    ``open_times`` must be sorted and ``prices`` is the (5, n) block of open,
    high, low, close and volume rows. A filled bar copies the previous close
    into its OHLC and has volume zero. Returns the filled open_times, the
    filled price block and the indices of the synthesized bars.
    """
    gaps = np.diff(open_times)
    bad = (gaps <= 0) | (gaps % interval_ms != 0)
    if bad.any():
        i = int(np.argmax(bad))
        prev, t = int(open_times[i]), int(open_times[i + 1])
        if t <= prev:
            raise InvariantViolation(f"duplicate open_time {t}")
        raise InvariantViolation(
            f"open_time {t} not aligned to interval {interval_ms} after {prev}"
        )
    steps = gaps // interval_ms
    if (steps == 1).all():
        return open_times, prices, ()
    # source bar of every output bar; a filled bar repeats the bar before the gap
    source = np.repeat(np.arange(len(open_times)), np.append(steps, 1))
    filled = np.ones(len(source), dtype=bool)
    filled[np.concatenate(([0], np.cumsum(steps)))] = False
    out = prices[:, source]
    out[:4, filled] = out[3, filled]
    out[4, filled] = 0.0
    out_times = open_times[0] + interval_ms * np.arange(len(source), dtype=np.int64)
    return out_times, out, tuple(np.flatnonzero(filled).tolist())


def parse_klines(
    rows: Iterable,
    symbol: str = "",
    interval_ms: int = FOUR_HOURS_MS,
) -> KlineSeries:
    """Parse raw rows into a validated, time-sorted, gap-filled KlineSeries.

    Accepts sequence rows in ``CSV_HEADER`` order, such as the exchange's
    arrays (``[openTime, open, high, low, close, volume, ...]`` with string
    prices); any other row, a mapping included, is a MalformedRow.
    Bars are validated in input order, then stably sorted by open_time.
    """
    fields = [_row_fields(row) for row in rows]
    if not fields:
        raise EmptyInput("no kline rows to parse")
    n = len(fields)
    columns = zip(*fields)
    try:
        open_times = np.fromiter(map(int, next(columns)), dtype=np.int64, count=n)
        prices = np.empty((5, n))
        for row, column in zip(prices, columns):
            row[:] = np.fromiter(map(float, column), dtype=np.float64, count=n)
    except (TypeError, ValueError) as exc:
        bad = next(row for row in fields if not _converts(row))
        raise MalformedRow(f"non-numeric field in row {bad!r}") from exc
    check_bars(open_times, prices)
    if (np.diff(open_times) < 0).any():
        order = np.argsort(open_times, kind="stable")
        open_times, prices = open_times[order], prices[:, order]
    open_times, prices, filled = fill_gaps(open_times, prices, interval_ms)
    return KlineSeries(symbol, interval_ms, open_times, *prices, filled_indices=filled)


def split_train_test(series: KlineSeries, train_fraction: float) -> tuple[KlineSeries, KlineSeries]:
    """Chronological split: first floor(n * fraction) bars train, rest test."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(series)
    if n < 2:
        raise TooShort(f"need at least 2 bars to split, got {n}")
    cut = int(math.floor(n * train_fraction))
    return series[:cut], series[cut:]


def _csv_cell(text: str) -> str:
    if _NEEDS_QUOTES.search(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def _csv_line(row: Sequence) -> str:
    """One row as the csv module's writer writes it, quoting decided cell by cell."""
    cells = [str(cell) for cell in row]
    if cells == [""]:
        return '""\r\n'  # quoted, or the row would read back as a blank line
    return ",".join(map(_csv_cell, cells)) + "\r\n"


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and ``rows`` as the bytes the csv module's writer writes.

    The dialect is csv's default: cells are separated by ``,`` and rows end in
    ``\\r\\n``; a cell whose text holds a comma, a quote or a line break is
    quoted, with its quotes doubled; a row whose only cell is empty is written
    as ``""``. Each cell is written as ``str(cell)``, so a float is its
    shortest round-trip repr. Every row has one cell per header name.

    Rows are formatted ``CSV_CHUNK_ROWS`` at a time through one ``%s``
    template and written chunk by chunk, never as one string for the file.
    """
    width = len(header)
    template = ",".join(["%s"] * width) + "\r\n"
    rows = iter(rows)
    with open(path, "w", newline="") as fh:
        fh.write(_csv_line(header))
        while chunk := list(islice(rows, CSV_CHUNK_ROWS)):
            text = "".join(map(template.__mod__, map(tuple, chunk)))
            n = len(chunk)
            # The template puts width - 1 commas and one "\r\n" in a row; any
            # more, or a quote, came from a cell whose text needs quoting. A
            # lone empty cell leaves no trace, so one-cell rows always take
            # the cell-by-cell path.
            if (width < 2 or '"' in text or text.count(",") != n * (width - 1)
                    or text.count("\n") != n or text.count("\r") != n):
                text = "".join(map(_csv_line, chunk))
            fh.write(text)


def save_klines_csv(series: KlineSeries, path) -> None:
    """Write the header and one row per bar; floats are written as their repr."""
    write_csv(path, CSV_HEADER, zip(*(column.tolist() for column in series.columns())))


def load_klines_csv(path, symbol: str = "", interval_ms: int = FOUR_HOURS_MS) -> KlineSeries:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyInput(f"{path} is empty")
        if [h.strip() for h in header] != CSV_HEADER:
            raise MalformedRow(f"{path} header {header!r} != {CSV_HEADER!r}")
        return parse_klines(filter(None, reader), symbol=symbol, interval_ms=interval_ms)


def _default_transport(url: str, params: dict, timeout: float):
    import requests

    try:
        resp = requests.get(url, params=params, timeout=timeout)
    except requests.RequestException as exc:
        raise NetworkError(str(exc)) from exc
    body = resp.json() if resp.status_code == 200 else None
    return resp.status_code, body


class BinanceClient:
    """Paginated, rate-limit-aware client for the public klines endpoint.

    ``transport`` is injectable so tests replay recorded responses instead of
    touching the network: it takes ``(url, params, timeout)`` and returns
    ``(status_code, parsed_json_or_None)``.
    """

    def __init__(
        self,
        base_url: str = "https://api.binance.com",
        transport=None,
        page_limit: int = 1000,
        max_retries: int = 5,
        backoff_base: float = 0.5,
        timeout: float = 30.0,
        sleep=time.sleep,
    ):
        self.base_url = base_url.rstrip("/")
        self.transport = transport or _default_transport
        self.page_limit = page_limit
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.timeout = timeout
        self.sleep = sleep
        self.request_count = 0

    def _request_page(self, params: dict) -> list:
        url = f"{self.base_url}/api/v3/klines"
        last_status = None
        for attempt in range(self.max_retries + 1):
            if attempt > 0:
                self.sleep(self.backoff_base * 2 ** (attempt - 1))
            self.request_count += 1
            try:
                status, body = self.transport(url, params, self.timeout)
            except NetworkError:
                if attempt == self.max_retries:
                    raise
                last_status = "exception"
                continue
            if status == 200:
                return body
            last_status = status
            if status != 429 and not 500 <= status < 600:
                raise NetworkError(f"klines request failed with HTTP {status}")
        if last_status == 429:
            raise RateLimited(f"still rate limited after {self.max_retries} retries")
        raise NetworkError(f"klines request failed after retries (last status {last_status})")

    def fetch_klines(self, symbol: str, interval: str, start_time: int, end_time: int) -> KlineSeries:
        """Fetch all bars with open_time in [start_time, end_time), validated."""
        if interval not in INTERVAL_MS:
            raise ValueError(f"unsupported interval {interval!r}")
        if start_time >= end_time:
            raise EmptyRange(f"start {start_time} >= end {end_time}")
        interval_ms = INTERVAL_MS[interval]
        rows: list = []
        cursor = start_time
        while cursor < end_time:
            page = self._request_page(
                {
                    "symbol": symbol,
                    "interval": interval,
                    "startTime": cursor,
                    "endTime": end_time - 1,
                    "limit": self.page_limit,
                }
            )
            if not page:
                break
            rows.extend(page)
            cursor = int(page[-1][0]) + interval_ms
            if len(page) < self.page_limit:
                break
        if not rows:
            raise EmptyRange(f"no bars returned for [{start_time}, {end_time})")
        return parse_klines(rows, symbol=symbol, interval_ms=interval_ms)
