"""Feature matrix assembly, normalization statistics, observation layout."""

import numpy as np
import pytest

from conftest import make_random_series
from drltrade import indicators as ind
from drltrade.env import EnvConfig, TradingEnv
from drltrade.errors import (
    ColumnMismatch,
    RangeTooSmall,
    RangeTouchesWarmup,
    TooShort,
    WindowUnderflow,
)
from drltrade.features import (
    DEFAULT_COLUMNS,
    FeatureConfig,
    Normalizer,
    assemble_observation,
    build_feature_matrix,
    fit_normalizer,
    normalize,
    normalizer_from_json,
    normalizer_to_json,
)


def test_default_columns_and_dims(random_series):
    config = FeatureConfig()
    assert config.columns == DEFAULT_COLUMNS
    matrix = build_feature_matrix(random_series, config)
    norm = normalize(matrix, fit_normalizer(matrix, range(matrix.valid_from, len(matrix))))
    env = TradingEnv(random_series, norm, EnvConfig())
    assert env.observation_dim == 2 + 60 * 18 == 1082
    assert len(env.observe()) == 1082


def test_build_matrix_default_columns(random_series):
    matrix = build_feature_matrix(random_series)
    assert matrix.rows.shape == (len(random_series), 18)
    # rsi30 has the largest warm-up of the default set
    assert matrix.valid_from == 30
    assert np.all(np.isfinite(matrix.rows[matrix.valid_from:]))
    assert np.isnan(matrix.rows[0, matrix.column_names.index("rsi14")])


def test_columns_route_to_indicators(random_series):
    config = FeatureConfig(window=4, columns=("close", "sma5", "ema9", "atr7", "dx10"))
    matrix = build_feature_matrix(random_series, config)
    names = matrix.column_names
    got_sma = matrix.rows[:, names.index("sma5")]
    want_sma = ind.sma(random_series.closes, 5).values
    assert np.array_equal(got_sma, want_sma, equal_nan=True)
    got_dx = matrix.rows[:, names.index("dx10")]
    want_dx = ind.dmi(random_series, 10)[2].values
    assert np.array_equal(got_dx, want_dx, equal_nan=True)


def test_return_column(random_series):
    matrix = build_feature_matrix(random_series, FeatureConfig(window=2, columns=("return",)))
    closes = random_series.closes
    assert matrix.rows[0, 0] == 0.0
    assert np.allclose(matrix.rows[1:, 0], closes[1:] / closes[:-1] - 1.0)


def test_unknown_column_rejected(random_series):
    with pytest.raises(ValueError):
        build_feature_matrix(random_series, FeatureConfig(columns=("close", "vwap14")))


def test_too_short_series_rejected(rng):
    short = make_random_series(rng, 20)
    with pytest.raises(TooShort):
        build_feature_matrix(short, FeatureConfig(columns=("rsi30",)))


def test_fit_normalizer_statistics(random_series):
    matrix = build_feature_matrix(random_series, FeatureConfig(columns=("close", "volume")))
    norm = fit_normalizer(matrix, range(10, 60))
    block = matrix.rows[10:60]
    assert np.allclose(norm.means, block.mean(axis=0))
    assert np.allclose(norm.stds, block.std(axis=0))
    assert norm.fitted_on == (10, 60)


def test_fit_normalizer_range_validation(random_series):
    matrix = build_feature_matrix(random_series, FeatureConfig(columns=("rsi14",)))
    with pytest.raises(RangeTooSmall):
        fit_normalizer(matrix, range(20, 21))
    with pytest.raises(RangeTouchesWarmup):
        fit_normalizer(matrix, range(5, 40))
    with pytest.raises(ValueError):
        fit_normalizer(matrix, range(20, 10_000))


def test_normalize_standardizes_fit_rows(random_series):
    matrix = build_feature_matrix(random_series, FeatureConfig(columns=("close", "return")))
    norm = fit_normalizer(matrix, range(0, 80))
    scaled = normalize(matrix, norm)
    block = scaled.rows[0:80]
    assert np.allclose(block.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(block.std(axis=0), 1.0, atol=1e-12)
    assert scaled.valid_from == matrix.valid_from


def test_normalize_zero_std_column_maps_to_zero(random_series):
    matrix = build_feature_matrix(random_series, FeatureConfig(columns=("close",)))
    matrix.rows[:, 0] = 7.0
    norm = fit_normalizer(matrix, range(0, 50))
    assert norm.stds[0] == 0.0
    scaled = normalize(matrix, norm)
    assert np.all(scaled.rows[:, 0] == 0.0)


def test_normalize_column_mismatch(random_series):
    matrix = build_feature_matrix(random_series, FeatureConfig(columns=("close",)))
    other = Normalizer(("volume",), np.zeros(1), np.ones(1), (0, 10))
    with pytest.raises(ColumnMismatch):
        normalize(matrix, other)


def test_assemble_observation_layout(random_series):
    config = FeatureConfig(window=3, columns=("close", "return"))
    matrix = build_feature_matrix(random_series, config)
    norm = normalize(matrix, fit_normalizer(matrix, range(0, 100)))
    obs = assemble_observation(norm, t=10, cash=5000.0, asset_units=20.0,
                               price=110.0, window=3, initial_balance=10_000.0)
    assert obs.shape == (2 + 3 * 2,)
    assert obs[0] == 0.5
    assert obs[1] == 20.0 * 110.0 / 10_000.0
    assert np.array_equal(obs[2:], norm.rows[8:11].reshape(-1))


def test_assemble_observation_window_underflow(random_series):
    config = FeatureConfig(window=5, columns=("rsi14",))
    matrix = build_feature_matrix(random_series, config)
    norm = normalize(matrix, fit_normalizer(matrix, range(14, 80)))
    with pytest.raises(WindowUnderflow):
        assemble_observation(norm, t=15, cash=1.0, asset_units=0.0, price=1.0,
                             window=5, initial_balance=1.0)
    with pytest.raises(WindowUnderflow):
        assemble_observation(norm, t=len(norm), cash=1.0, asset_units=0.0, price=1.0,
                             window=5, initial_balance=1.0)


def test_no_look_ahead_rows_and_observations(rng):
    """Feature rows and observations at i are identical after truncation at i."""
    config = FeatureConfig(window=4, columns=("close", "return", "rsi14", "macd"))
    for _ in range(5):
        series = make_random_series(rng, 90)
        cut = int(rng.integers(40, 80))
        prefix = series[:cut]
        full = build_feature_matrix(series, config)
        part = build_feature_matrix(prefix, config)
        assert np.array_equal(full.rows[:cut], part.rows, equal_nan=True)
        t = cut - 1
        norm = Normalizer(full.column_names, np.zeros(4), np.ones(4), (0, cut))
        a = assemble_observation(normalize(full, norm), t, 1.0, 2.0, 3.0, 4, 1.0)
        b = assemble_observation(normalize(part, norm), t, 1.0, 2.0, 3.0, 4, 1.0)
        assert np.array_equal(a, b)


def test_normalizer_json_round_trip(random_series):
    matrix = build_feature_matrix(random_series, FeatureConfig(columns=("close", "return")))
    norm = fit_normalizer(matrix, range(0, 40))
    back = normalizer_from_json(normalizer_to_json(norm))
    assert back.column_names == norm.column_names
    assert np.array_equal(back.means, norm.means)
    assert np.array_equal(back.stds, norm.stds)
    assert back.fitted_on == norm.fitted_on
