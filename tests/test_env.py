"""Trading environment ledger arithmetic and reward bracketing."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_series
from drltrade.env import (
    EnvConfig,
    TradingEnv,
    execute_trade,
    gross_value,
)
from drltrade.errors import NonPositivePrice, SteppedAfterDone, WindowUnderflow
from drltrade.features import FeatureConfig, build_feature_matrix, fit_normalizer, normalize
from drltrade.market_data import KlineSeries
from oracles import clip_action

FEE = 0.0075


def build_env(series, window=3, columns=("close", "return"), episode=None, **config_kw):
    matrix = build_feature_matrix(series, FeatureConfig(window=window, columns=columns))
    norm = normalize(matrix, fit_normalizer(matrix, range(matrix.valid_from, len(series))))
    config = EnvConfig(window=window, **config_kw)
    return TradingEnv(series, norm, config, episode)


def test_execute_trade_buy():
    info = execute_trade(10_000.0, 0.0, 100.0, 5.0, FEE)
    cash, asset = info.cash, info.asset_units
    assert info.executed_units == 5.0
    assert info.fee == pytest.approx(5.0 * 100.0 * FEE)
    assert cash == pytest.approx(10_000.0 - 5.0 * 100.0 * (1.0 + FEE))
    assert asset == 5.0
    assert not info.clamped


def test_execute_trade_buy_clamped_to_affordable():
    info = execute_trade(100.0, 0.0, 100.0, 5.0, FEE)
    cash, asset = info.cash, info.asset_units
    affordable = 100.0 / (100.0 * (1.0 + FEE))
    assert info.executed_units == pytest.approx(affordable)
    assert info.clamped
    assert cash == pytest.approx(0.0, abs=1e-12)
    assert cash >= 0.0
    assert asset == pytest.approx(affordable)


def test_execute_trade_sell_and_oversell():
    info = execute_trade(0.0, 2.0, 50.0, -1.0, FEE)
    cash, asset = info.cash, info.asset_units
    assert info.executed_units == -1.0
    assert cash == pytest.approx(50.0 * (1.0 - FEE))
    assert asset == 1.0
    info = execute_trade(0.0, 2.0, 50.0, -5.0, FEE)
    cash, asset = info.cash, info.asset_units
    assert info.executed_units == -2.0
    assert info.clamped
    assert asset == 0.0


def test_execute_trade_zero_and_bad_price():
    info = execute_trade(10.0, 1.0, 5.0, 0.0, FEE)
    cash, asset = info.cash, info.asset_units
    assert (cash, asset, info.executed_units, info.fee) == (10.0, 1.0, 0.0, 0.0)
    assert not info.clamped
    with pytest.raises(NonPositivePrice):
        execute_trade(10.0, 1.0, 0.0, 1.0, FEE)


def test_env_requires_matching_lengths_and_positive_closes(rng):
    series = make_random_series(rng, 40)
    matrix = build_feature_matrix(series, FeatureConfig(window=3, columns=("close",)))
    short = build_feature_matrix(
        make_random_series(rng, 30), FeatureConfig(window=3, columns=("close",))
    )
    with pytest.raises(ValueError):
        TradingEnv(series, short, EnvConfig(window=3))


def test_env_episode_validation(rng):
    series = make_random_series(rng, 40)
    matrix = build_feature_matrix(series, FeatureConfig(window=3, columns=("close",)))
    norm = normalize(matrix, fit_normalizer(matrix, range(0, 40)))
    with pytest.raises(WindowUnderflow):
        TradingEnv(series, norm, EnvConfig(window=3), range(1, 40))
    with pytest.raises(ValueError):
        TradingEnv(series, norm, EnvConfig(window=3), range(5, 41))
    with pytest.raises(ValueError):
        TradingEnv(series, norm, EnvConfig(window=3), range(5, 6))


def test_default_max_buy_uses_first_bar_of_whole_series():
    """On the test split of a market that doubles, the default order size still
    comes from bar 0, so a full buy asks for 100 units and is clamped."""
    n = 40
    closes = np.linspace(100.0, 200.0, n)
    opens = np.concatenate((closes[:1], closes[:-1]))
    series = KlineSeries("UP", 1000, 1000 * np.arange(n), opens, closes, opens, closes,
                         np.ones(n))
    test_start = 30
    env = build_env(series, episode=range(test_start, n), fee_rate=0.0)
    assert env.max_buy_amount == 100.0  # 10 000 / closes[0], not / closes[30]
    info = env.step(1.0).info
    assert info.desired_units == 100.0
    assert info.clamped
    assert info.executed_units == pytest.approx(10_000.0 / closes[test_start])


def test_env_default_episode_and_max_buy(rng):
    series = make_random_series(rng, 40)
    env = build_env(series, window=3)
    assert env.episode == range(2, 40)
    assert env.max_buy_amount == pytest.approx(10_000.0 / series.closes[0])
    env2 = build_env(series, window=3, max_buy_amount=7.0)
    assert env2.max_buy_amount == 7.0


def test_reset_state(rng):
    env = build_env(make_random_series(rng, 30))
    env.step(0.5)
    obs = env.reset()
    assert env.cash == 10_000.0
    assert env.asset_units == 0.0
    assert env.trade_count == 0
    assert env.total_cost == 0.0
    assert env.t == env.episode.start
    assert not env.done
    assert obs[0] == 1.0 and obs[1] == 0.0


def test_step_ledger_and_reward(rng):
    series = make_random_series(rng, 30)
    env = build_env(series)
    t0 = env.t
    p0, p1 = float(series.closes[t0]), float(series.closes[t0 + 1])
    result = env.step(0.25)
    units = 0.25 * env.max_buy_amount
    assert env.asset_units == pytest.approx(units)
    assert env.cash == pytest.approx(10_000.0 - units * p0 * (1.0 + FEE))
    gv = gross_value(env.cash, env.asset_units, p1)
    assert result.reward == pytest.approx((gv - 10_000.0) * 1e-4)
    assert env.trade_count == 1
    assert env.total_cost == pytest.approx(units * p0 * FEE)
    assert result.observation[0] == pytest.approx(env.cash / 10_000.0)


def test_liquidate_sells_held_units(rng):
    series = make_random_series(rng, 30)
    env = build_env(series)
    env.step(0.5)
    t, cash, units, cost = env.t, env.cash, env.asset_units, env.total_cost
    price = float(series.closes[t])
    info = env.liquidate()
    assert info.executed_units == -units and info.price == price and not info.clamped
    assert info.fee == units * price * FEE
    assert env.cash == cash + units * price * (1.0 - FEE)
    assert env.asset_units == 0.0
    assert env.trade_count == 2
    assert env.total_cost == cost + info.fee
    assert env.t == t


def test_liquidate_flat_is_not_a_trade(rng):
    env = build_env(make_random_series(rng, 30))
    info = env.liquidate()
    assert info.executed_units == 0.0 and info.fee == 0.0
    assert (env.cash, env.asset_units, env.trade_count, env.total_cost) == (10_000.0, 0.0, 0, 0.0)


def test_clamped_step_adds_penalty_flat_price():
    """Oversell on a flat price: reward is the penalty minus the scaled fee."""
    series = make_random_series(np.random.default_rng(5), 30)
    price = np.full(len(series), 100.0)
    flat = replace(series, symbol="F", opens=price, highs=price, lows=price, closes=price)
    env = build_env(flat, columns=("volume",))
    env.step(0.5)  # buy 50 units at 100
    fee_before = env.total_cost
    result = env.step(-1.0)  # desired sell 100 units, only 50 held
    assert result.info.clamped
    fee = 50.0 * 100.0 * FEE
    assert result.reward == pytest.approx(-0.01 - fee * 1e-4)
    assert env.total_cost == pytest.approx(fee_before + fee)


def test_zero_action_is_not_a_trade(rng):
    env = build_env(make_random_series(rng, 30))
    env.step(0.0)
    assert env.trade_count == 0
    assert env.total_cost == 0.0


def test_action_clipped_to_unit_interval(rng):
    series = make_random_series(rng, 30)
    env = build_env(series)
    result = env.step(7.5)
    assert result.info.desired_units == pytest.approx(env.max_buy_amount)


CLAMP_CASES = [7.5, -3.0, 1.0 + 2**-52, 0.3, -0.0, 0.0, np.inf, -np.inf, np.nan,
               np.float32(1.7), np.float32(0.1), 5e-324, -1.0]


@pytest.mark.parametrize("wrap", ["0-d", "1-d", "list"])
def test_action_clamp_is_bit_identical_to_np_clip(rng, wrap):
    """The scalar clamp matches np.clip for every kind of value and container."""
    series = make_random_series(rng, 30)
    form = {"0-d": np.asarray, "1-d": lambda v: np.array([v]), "list": lambda v: [v]}[wrap]
    for value in CLAMP_CASES:
        action = form(value)
        env = build_env(series)
        env.step(np.array([0.5]))  # hold units, so sells execute too
        result = env.step(action)
        want = np.float64(clip_action(action) * env.max_buy_amount)
        assert np.float64(result.info.desired_units).tobytes() == want.tobytes()


def test_done_at_final_bar_and_stepped_after_done(rng):
    series = make_random_series(rng, 12)
    env = build_env(series, episode=range(4, 8))
    results = [env.step(0.0) for _ in range(3)]
    assert [r.done for r in results] == [False, False, True]
    assert env.t == 7
    with pytest.raises(SteppedAfterDone):
        env.step(0.0)


def test_telescoping_identity_zero_fee_zero_penalty(rng):
    series = make_random_series(rng, 60)
    env = build_env(series, fee_rate=0.0, violation_penalty=0.0)
    total = 0.0
    done = False
    while not done:
        result = env.step(float(rng.uniform(-1, 1)))
        total += result.reward
        done = result.done
    final_price = float(series.closes[env.t])
    delta = gross_value(env.cash, env.asset_units, final_price) - 10_000.0
    assert total / 1e-4 == pytest.approx(delta, abs=1e-6)


def test_total_cost_matches_fee_ledger(rng):
    series = make_random_series(rng, 60)
    env = build_env(series)
    expected = 0.0
    done = False
    while not done:
        result = env.step(float(rng.uniform(-1, 1)))
        expected += abs(result.info.executed_units) * result.info.price * FEE
        done = result.done
    assert env.total_cost == pytest.approx(expected, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_ledger_non_negativity_property(seed):
    rng = np.random.default_rng(seed)
    series = make_random_series(rng, 25)
    env = build_env(series)
    done = False
    while not done:
        result = env.step(float(rng.uniform(-1.5, 1.5)))
        assert env.cash >= 0.0
        assert env.asset_units >= 0.0
        assert env.total_cost >= 0.0
        done = result.done
