"""Indicator correctness against brute-force oracles, bounds, and edge cases."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_series, nan_prefix, past_warmup
from drltrade import indicators as ind
from drltrade.errors import PeriodZero, TooShort
from drltrade.market_data import KlineSeries
from oracles import (
    brute_atr,
    brute_bollinger,
    brute_cci,
    brute_dmi,
    brute_ema,
    brute_macd,
    brute_rsi,
    brute_sma,
    brute_true_range,
    loop_ema,
    loop_wilder_smooth,
)

ATOL = 1e-9


def flat_series(n, price=50.0):
    flat = np.full(n, price)
    return KlineSeries("FLAT", 1000, 1000 * np.arange(n), flat, flat, flat, flat, np.ones(n))


def monotonic_series(n, start=10.0, step=1.0):
    closes = start + np.arange(n) * step
    opens = closes - step
    opens[0] = closes[0]
    return KlineSeries("MONO", 1000, 1000 * np.arange(n), opens,
                       np.maximum(opens, closes), np.minimum(opens, closes), closes, np.ones(n))


def assert_matches(series_values, oracle_values, warmup):
    """NaN on exactly the first ``warmup`` bars, finite and equal to the oracle after."""
    got = np.asarray(series_values, dtype=float)
    want = np.asarray(oracle_values, dtype=float)
    assert np.all(np.isnan(got[:warmup]))
    assert np.all(np.isfinite(got[warmup:]))
    assert np.allclose(got[warmup:], want[warmup:], atol=ATOL, rtol=0.0)


def test_sma_small_example():
    out = ind.sma([1.0, 2.0, 3.0, 4.0, 5.0], 3)
    assert np.all(np.isnan(out[:2]))
    assert np.allclose(out[2:], [2.0, 3.0, 4.0])


def test_ema_matches_oracle(rng):
    values = rng.uniform(10, 20, size=60)
    out = ind.ema(values, 10)
    assert_matches(out, brute_ema(values, 10), 9)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 40),
    period=st.integers(1, 15),
    first_index=st.integers(0, 5),
)
def test_recurrences_match_numpy_scalar_loops_bit_for_bit(seed, n, period, first_index):
    """The Python-float recurrences repeat the numpy-scalar loops' arithmetic exactly,
    including series shorter than the seed window and a late first index."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
    got = ind.wilder_smooth(x, period, first_index)
    assert got.tobytes() == loop_wilder_smooth(x, period, first_index).tobytes()
    assert ind.ema(x, period).tobytes() == loop_ema(x, period).tobytes()


def test_true_range_first_bar_is_high_minus_low(random_series):
    tr = ind.true_range(random_series)
    assert tr[0] == random_series.highs[0] - random_series.lows[0]
    want = brute_true_range(random_series.highs, random_series.lows, random_series.closes)
    assert np.allclose(tr, want, atol=ATOL)


@pytest.mark.parametrize("period", [5, 14, 30])
def test_all_indicators_match_oracles(rng, period):
    for _ in range(3):
        s = make_random_series(rng, 60)
        h, l, c = s.highs, s.lows, s.closes
        # expected warm-ups: sma/ema/cci/atr p-1, rsi/dmi p, macd 25, bollinger n-1
        assert_matches(ind.sma(c, period), brute_sma(c, period), period - 1)
        assert_matches(ind.ema(c, period), brute_ema(c, period), period - 1)
        assert_matches(ind.cci(s, period), brute_cci(h, l, c, period), period - 1)
        assert_matches(ind.rsi(s, period), brute_rsi(c, period), period)
        assert_matches(ind.atr(s, period), brute_atr(h, l, c, period), period - 1)
        for got, want in zip(ind.dmi(s, period), brute_dmi(h, l, c, period), strict=True):
            assert_matches(got, want, period)
        assert_matches(ind.macd(s), brute_macd(c), 25)
        for got, want in zip(ind.bollinger(s), brute_bollinger(h, l, c), strict=True):
            assert_matches(got, want, 20 - 1)


def test_warmup_lengths():
    s = make_random_series(np.random.default_rng(3), 80)
    assert nan_prefix(ind.sma(s.closes, 14)) == 13
    assert nan_prefix(ind.ema(s.closes, 14)) == 13
    assert nan_prefix(ind.cci(s, 14)) == 13
    assert nan_prefix(ind.rsi(s, 14)) == 14
    assert nan_prefix(ind.atr(s, 14)) == 13
    assert [nan_prefix(x) for x in ind.dmi(s, 14)] == [14, 14, 14]
    assert nan_prefix(ind.macd(s)) == 25
    assert [nan_prefix(x) for x in ind.bollinger(s)] == [19, 19, 19]


def test_period_validation():
    with pytest.raises(PeriodZero):
        ind.sma([1.0, 2.0], 0)
    with pytest.raises(PeriodZero):
        ind.rsi(flat_series(10), -1)


def test_too_short_errors():
    with pytest.raises(TooShort):
        ind.rsi(flat_series(5), 5)
    with pytest.raises(TooShort):
        ind.dmi(flat_series(5), 5)
    with pytest.raises(TooShort):
        ind.macd(flat_series(20))


def test_rsi_extremes_and_flat_convention():
    assert np.allclose(past_warmup(ind.rsi(monotonic_series(20), 5)), 100.0)
    falling = monotonic_series(20, start=100.0, step=-1.0)
    assert np.allclose(past_warmup(ind.rsi(falling, 5)), 0.0)
    assert np.allclose(past_warmup(ind.rsi(flat_series(20), 5)), 50.0)


def test_cci_flat_window_is_zero():
    assert np.allclose(past_warmup(ind.cci(flat_series(20), 5)), 0.0)


def test_dx_flat_series_is_zero():
    _, _, dx = ind.dmi(flat_series(20), 5)
    assert np.allclose(past_warmup(dx), 0.0)


def test_bollinger_flat_bands_collapse():
    mid, up, lo = ind.bollinger(flat_series(30), 10, 2.0)
    assert np.allclose(past_warmup(mid), 50.0)
    assert np.allclose(past_warmup(up), 50.0)
    assert np.allclose(past_warmup(lo), 50.0)


@pytest.mark.parametrize("m", [-1.0, float("nan")])
def test_bollinger_refuses_a_width_below_zero_or_nan(m):
    with pytest.raises(ValueError, match="band width multiplier must be >= 0"):
        ind.bollinger(flat_series(30), 10, m)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), period=st.integers(2, 20))
def test_bounds_and_ordering_properties(seed, period):
    rng = np.random.default_rng(seed)
    s = make_random_series(rng, period + 30)
    rsi = past_warmup(ind.rsi(s, period))
    assert np.all((rsi >= 0.0) & (rsi <= 100.0))
    _, _, dx = ind.dmi(s, period)
    assert np.all((past_warmup(dx) >= 0.0) & (past_warmup(dx) <= 100.0))
    mid, up, lo = ind.bollinger(s, period, 2.0)
    assert np.all(past_warmup(lo) <= past_warmup(mid) + 1e-12)
    assert np.all(past_warmup(mid) <= past_warmup(up) + 1e-12)


def scaled_shifted(series, scale=1.0, shift=0.0):
    return replace(
        series,
        opens=series.opens * scale + shift,
        highs=series.highs * scale + shift,
        lows=series.lows * scale + shift,
        closes=series.closes * scale + shift,
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_shift_and_scale_invariance(seed):
    rng = np.random.default_rng(seed)
    s = make_random_series(rng, 40)
    scale = float(rng.uniform(0.5, 3.0))
    shift = float(rng.uniform(0.0, 50.0))
    other = scaled_shifted(s, scale, shift)
    for fn in (lambda x: past_warmup(ind.rsi(x, 7)),
               lambda x: past_warmup(ind.dmi(x, 7)[2]),
               lambda x: past_warmup(ind.cci(x, 7))):
        a, b = fn(s), fn(other)
        assert np.allclose(a, b, atol=1e-7, rtol=1e-7)


def test_truncation_leaves_prefix_unchanged(rng):
    """No look-ahead: values at i depend only on bars up to i."""
    s = make_random_series(rng, 100)
    cut = 60
    prefix = s[:cut]
    for full, part in [
        (ind.rsi(s, 14), ind.rsi(prefix, 14)),
        (ind.cci(s, 14), ind.cci(prefix, 14)),
        (ind.atr(s, 14), ind.atr(prefix, 14)),
        (ind.macd(s), ind.macd(prefix)),
    ]:
        a, b = full[:cut], part
        assert np.array_equal(a, b, equal_nan=True)
