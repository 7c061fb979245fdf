"""Closed-form technical indicators over a KlineSeries.

Every function returns float64 arrays aligned index-for-index with the source
series. Leading indices whose look-back window is incomplete are NaN; that NaN
prefix is the indicator's warm-up, and every later value is finite for finite
input.

Conventions for the formulas' undefined points (all chosen to stay bounded):
zero mean deviation -> CCI 0; DI sum zero -> DX 0; zero average loss -> RSI 100,
zero average gain -> RSI 0, both zero (flat window) -> RSI 50.

Wilder smoothing here means the recursive average
``s[i] = (s[i-1] * (period - 1) + x[i]) / period`` seeded with a plain mean of
the first ``period`` inputs; RSI, ATR and the DMI family all use it.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import PeriodZero, TooShort
from .market_data import KlineSeries


def _check_period(period: int) -> None:
    if period < 1:
        raise PeriodZero(f"period must be >= 1, got {period}")


def _nan_prefix(n: int, warmup: int) -> np.ndarray:
    out = np.empty(n, dtype=np.float64)
    out[:warmup] = np.nan
    return out


def typical_price(series: KlineSeries) -> np.ndarray:
    return (series.highs + series.lows + series.closes) / 3.0


def wilder_smooth(x: np.ndarray, period: int, first_index: int) -> np.ndarray:
    """Wilder recursive average of x, seeded at ``first_index + period - 1``.

    ``x`` values before ``first_index`` are ignored (treated as undefined).
    """
    n = len(x)
    start = first_index + period - 1
    out = _nan_prefix(n, min(start, n))
    if start >= n:
        return out
    s = float(np.mean(x[first_index:first_index + period]))
    smoothed = [s]
    for value in x[start + 1:].tolist():
        s = (s * (period - 1) + value) / period
        smoothed.append(s)
    out[start:] = smoothed
    return out


def sma(values, period: int) -> np.ndarray:
    """Rolling mean over the trailing ``period`` values."""
    _check_period(period)
    x = np.asarray(values, dtype=np.float64)
    n = len(x)
    warmup = period - 1
    out = _nan_prefix(n, min(warmup, n))
    if n >= period:
        out[warmup:] = sliding_window_view(x, period).mean(axis=1)
    return out


def ema(values, period: int) -> np.ndarray:
    """Exponential moving average seeded with the SMA of the first period."""
    _check_period(period)
    x = np.asarray(values, dtype=np.float64)
    n = len(x)
    warmup = period - 1
    out = _nan_prefix(n, min(warmup, n))
    if n >= period:
        alpha = 2.0 / (period + 1.0)
        e = float(np.mean(x[:period]))
        averages = [e]
        for value in x[period:].tolist():
            e = alpha * value + (1.0 - alpha) * e
            averages.append(e)
        out[warmup:] = averages
    return out


def cci(series: KlineSeries, period: int) -> np.ndarray:
    """Commodity channel index: (TP - SMA(TP)) / (0.015 * mean deviation)."""
    _check_period(period)
    tp = typical_price(series)
    n = len(tp)
    warmup = period - 1
    out = _nan_prefix(n, min(warmup, n))
    if n >= period:
        windows = sliding_window_view(tp, period)
        ma = windows.mean(axis=1)
        mean_dev = np.abs(windows - ma[:, None]).mean(axis=1)
        num = tp[warmup:] - ma
        denom = 0.015 * mean_dev
        out[warmup:] = np.where(denom > 0.0, num / np.where(denom > 0.0, denom, 1.0), 0.0)
    return out


def _rsi_from_averages(avg_gain: np.ndarray, avg_loss: np.ndarray) -> np.ndarray:
    out = np.empty_like(avg_gain)
    both_zero = (avg_gain == 0.0) & (avg_loss == 0.0)
    no_loss = (avg_loss == 0.0) & ~both_zero
    safe_loss = np.where(avg_loss == 0.0, 1.0, avg_loss)
    rs = avg_gain / safe_loss
    out[:] = 100.0 - 100.0 / (1.0 + rs)
    out[no_loss] = 100.0
    out[both_zero] = 50.0
    return out


def rsi(series: KlineSeries, period: int) -> np.ndarray:
    """Relative strength index with Wilder-smoothed average gains/losses."""
    _check_period(period)
    closes = series.closes
    n = len(closes)
    if n <= period:
        raise TooShort(f"rsi({period}) needs more than {period} bars, got {n}")
    change = np.diff(closes)
    gains = np.maximum(change, 0.0)
    losses = np.maximum(-change, 0.0)
    # changes live at bar indices 1..n-1; smoothing is in change-space, then
    # shifted so value[i] uses changes up to and including bar i
    avg_gain = wilder_smooth(gains, period, 0)
    avg_loss = wilder_smooth(losses, period, 0)
    out = _nan_prefix(n, period)
    out[period:] = _rsi_from_averages(avg_gain[period - 1:], avg_loss[period - 1:])
    return out


def true_range(series: KlineSeries) -> np.ndarray:
    """TR per bar; the first bar has no prior close and uses high - low."""
    highs, lows, closes = series.highs, series.lows, series.closes
    tr = highs - lows
    if len(tr) > 1:
        prev_close = closes[:-1]
        tr = tr.copy()
        tr[1:] = np.maximum(
            tr[1:], np.maximum(np.abs(highs[1:] - prev_close), np.abs(lows[1:] - prev_close))
        )
    return tr


def atr(series: KlineSeries, period: int) -> np.ndarray:
    """Average true range: Wilder-smoothed TR."""
    _check_period(period)
    return wilder_smooth(true_range(series), period, 0)


def dmi(series: KlineSeries, period: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directional movement: returns (DI+, DI-, DX), each warmed up ``period`` bars."""
    _check_period(period)
    highs, lows = series.highs, series.lows
    n = len(highs)
    if n <= period:
        raise TooShort(f"dmi({period}) needs more than {period} bars, got {n}")
    up_move = highs[1:] - highs[:-1]
    down_move = lows[:-1] - lows[1:]
    plus_dm = np.zeros(n)
    minus_dm = np.zeros(n)
    plus_dm[1:] = np.where((up_move > down_move) & (up_move > 0.0), up_move, 0.0)
    minus_dm[1:] = np.where((down_move > up_move) & (down_move > 0.0), down_move, 0.0)
    # DM is undefined at bar 0, so its smoothing seeds one bar later than ATR's
    sm_plus = wilder_smooth(plus_dm, period, 1)
    sm_minus = wilder_smooth(minus_dm, period, 1)
    atr_vals = atr(series, period)

    warmup = period
    di_plus = _nan_prefix(n, warmup)
    di_minus = _nan_prefix(n, warmup)
    dx = _nan_prefix(n, warmup)
    a = atr_vals[warmup:]
    safe_atr = np.where(a > 0.0, a, 1.0)
    di_plus[warmup:] = np.where(a > 0.0, 100.0 * sm_plus[warmup:] / safe_atr, 0.0)
    di_minus[warmup:] = np.where(a > 0.0, 100.0 * sm_minus[warmup:] / safe_atr, 0.0)
    di_sum = di_plus[warmup:] + di_minus[warmup:]
    safe_sum = np.where(di_sum > 0.0, di_sum, 1.0)
    # rounding in |a-b|/(a+b) can spill one ulp past 1 when one DI is ~0
    dx[warmup:] = np.minimum(
        np.where(
            di_sum > 0.0, 100.0 * np.abs(di_plus[warmup:] - di_minus[warmup:]) / safe_sum, 0.0
        ),
        100.0,
    )
    return di_plus, di_minus, dx


def macd(series: KlineSeries, fast: int = 12, slow: int = 26) -> np.ndarray:
    """EMA(close, fast) - EMA(close, slow)."""
    closes = series.closes
    if len(closes) < slow:
        raise TooShort(f"macd needs at least {slow} bars, got {len(closes)}")
    return ema(closes, fast) - ema(closes, slow)


def bollinger(
    series: KlineSeries, n: int = 20, m: float = 2.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bollinger bands on typical price: (mid, upper, lower).

    Uses the population standard deviation of the window; mid is the SMA, and
    upper/lower are mid +/- m sigma.
    """
    _check_period(n)
    if not m >= 0.0:  # written so that NaN fails it too
        raise ValueError(f"band width multiplier must be >= 0, got {m}")
    tp = typical_price(series)
    length = len(tp)
    warmup = n - 1
    mid = _nan_prefix(length, min(warmup, length))
    upper = mid.copy()
    lower = mid.copy()
    if length >= n:
        windows = sliding_window_view(tp, n)
        ma = windows.mean(axis=1)
        sigma = np.sqrt(np.mean((windows - ma[:, None]) ** 2, axis=1))
        mid[warmup:] = ma
        upper[warmup:] = ma + m * sigma
        lower[warmup:] = ma - m * sigma
    return mid, upper, lower
