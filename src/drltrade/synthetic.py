"""Deterministic synthetic kline series for tests and smoke experiments."""

from __future__ import annotations

import numpy as np

from .market_data import FOUR_HOURS_MS, KlineSeries, check_bars


def make_sine_series(
    n_bars: int,
    base: float = 100.0,
    amplitude: float = 0.2,
    period: int = 50,
    volume: float = 1000.0,
    start_time: int = 0,
    interval_ms: int = FOUR_HOURS_MS,
    symbol: str = "SINE",
) -> KlineSeries:
    """Closes follow base * (1 + amplitude * sin(2 pi t / period)).

    Opens carry the previous close so bars chain without gaps; highs and lows
    bracket open and close. A predictable oscillation like this is learnable by
    any working policy-gradient agent, which makes it a good end-to-end probe.
    The bars are checked like parsed ones: a ``period`` of 0 (NaN prices) or an
    ``amplitude`` that takes a close to 0 or below raises InvariantViolation.
    """
    if n_bars < 1:
        raise ValueError(f"n_bars must be at least 1, got {n_bars}")
    t = np.arange(n_bars)
    with np.errstate(divide="ignore", invalid="ignore"):  # period 0: check_bars refuses
        closes = base * (1.0 + amplitude * np.sin(2.0 * np.pi * t / period))
    opens = np.empty(n_bars)
    opens[0] = closes[0]
    opens[1:] = closes[:-1]
    open_times = np.asarray(start_time + t * interval_ms, dtype=np.int64)
    prices = np.stack([opens, np.maximum(opens, closes), np.minimum(opens, closes), closes,
                       np.full(n_bars, volume, dtype=np.float64)])
    check_bars(open_times, prices)
    return KlineSeries(symbol, interval_ms, open_times, *prices)
