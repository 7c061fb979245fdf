"""Shared fixtures: random but valid candle series, rngs."""

import numpy as np
import pytest

from drltrade.market_data import FOUR_HOURS_MS, KlineSeries, parse_klines

# Acceptance tests append their PASS/FAIL lines here so they show up in the
# terminal summary even when output capture is on.
CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.line(line)


def make_random_series(
    rng: np.random.Generator,
    n: int,
    base: float = 100.0,
    vol: float = 0.02,
    start_time: int = 1_609_459_200_000,
    interval_ms: int = FOUR_HOURS_MS,
    symbol: str = "RND",
) -> KlineSeries:
    """Geometric random walk closes with consistent OHLC brackets.

    Per bar it draws the high spread, the low spread and the volume, in that
    order, after all closes; the series goes through ``parse_klines`` so every
    fixture is a validated, gapless series.
    """
    closes = base * np.exp(np.cumsum(rng.normal(0.0, vol, size=n)))
    draws = rng.normal([0.0, 0.0, 1000.0], [vol / 2.0, vol / 2.0, 250.0], size=(n, 3))
    spread_up, spread_dn = 1.0 + np.abs(draws[:, 0]), 1.0 + np.abs(draws[:, 1])
    opens = np.concatenate(([base], closes[:-1]))
    columns = (
        start_time + interval_ms * np.arange(n),
        opens,
        np.maximum(opens, closes) * spread_up,
        np.minimum(opens, closes) / spread_dn,
        closes,
        np.abs(draws[:, 2]),
    )
    rows = zip(*(c.tolist() for c in columns))
    return parse_klines(rows, symbol=symbol, interval_ms=interval_ms)


def nan_prefix(values) -> int:
    """The length of the leading run of NaN."""
    return int(np.logical_and.accumulate(np.isnan(values)).sum())


def past_warmup(values):
    """An indicator's values after its leading run of NaN (its warm-up); an
    output with no value past the warm-up fails here rather than pass every
    check on an empty array."""
    k = nan_prefix(values)
    assert k < len(values), "no value past the warm-up"
    return values[k:]


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def random_series(rng):
    return make_random_series(rng, 120)
