"""Advantage estimation vs the definitional sum, plus buffer behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_series
from drltrade.agents import (
    ReplayBuffer,
    collect_rollout,
    compute_gae,
    normalize_advantages,
)
from drltrade.env import EnvConfig, TradingEnv
from drltrade.errors import EmptyBuffer
from drltrade.features import FeatureConfig, build_feature_matrix, fit_normalizer, normalize
from drltrade.neural import ActorCritic, GaussianPolicy, Mlp
from oracles import brute_gae, per_step_rollout


def test_gae_undiscounted_example():
    adv, ret = compute_gae(
        rewards=np.array([1.0, 1.0]),
        values=np.array([0.0, 0.0]),
        dones=np.array([0.0, 0.0]),
        last_value=0.0,
        gamma=1.0,
        lam=1.0,
    )
    assert np.allclose(adv, [2.0, 1.0])  # raw, not normalized
    assert np.allclose(ret, [2.0, 1.0])


@pytest.mark.parametrize("lam", [0.0, 0.95, 1.0])
def test_gae_matches_brute_force(rng, lam):
    for _ in range(10):
        n = 5
        rewards = rng.normal(size=n)
        values = rng.normal(size=n)
        dones = (rng.uniform(size=n) < 0.3).astype(float)
        last_value = float(rng.normal())
        adv, ret = compute_gae(rewards, values, dones, last_value, 0.99, lam)
        want_adv, want_ret = brute_gae(rewards, values, dones, last_value, 0.99, lam)
        assert np.allclose(adv, want_adv, atol=1e-10)
        assert np.allclose(ret, want_ret, atol=1e-10)


def test_gae_lambda_zero_is_td_residual(rng):
    rewards, values = rng.normal(size=4), rng.normal(size=4)
    dones = np.zeros(4)
    adv, _ = compute_gae(rewards, values, dones, 0.5, 0.9, 0.0)
    next_values = np.append(values[1:], 0.5)
    assert np.allclose(adv, rewards + 0.9 * next_values - values, atol=1e-12)


def test_gae_lambda_one_is_discounted_return_minus_value(rng):
    rewards, values = rng.normal(size=5), rng.normal(size=5)
    dones = np.zeros(5)
    adv, _ = compute_gae(rewards, values, dones, 0.0, 0.9, 1.0)
    discounted = [sum(0.9 ** (k - t) * rewards[k] for k in range(t, 5)) for t in range(5)]
    assert np.allclose(adv, np.array(discounted) - values, atol=1e-12)


def test_gae_done_stops_bootstrap():
    adv, _ = compute_gae(
        rewards=np.array([1.0, 1.0]),
        values=np.array([0.0, 0.0]),
        dones=np.array([1.0, 0.0]),
        last_value=100.0,
        gamma=0.99,
        lam=0.95,
    )
    assert adv[0] == pytest.approx(1.0)  # no leakage across the boundary


def test_gae_empty_raises():
    with pytest.raises(EmptyBuffer):
        compute_gae(np.array([]), np.array([]), np.array([]), 0.0, 0.99, 0.95)


def test_normalize_advantages(rng):
    adv = rng.normal(3.0, 2.0, size=50)
    scaled = normalize_advantages(adv)
    assert scaled.mean() == pytest.approx(0.0, abs=1e-12)
    assert scaled.std() == pytest.approx(1.0, rel=1e-6)
    constant = normalize_advantages(np.full(4, 2.5))
    assert np.all(np.isfinite(constant))


def make_env(rng, n=40, episode=None):
    series = make_random_series(rng, n)
    config = FeatureConfig(window=3, columns=("close", "return"))
    matrix = build_feature_matrix(series, config)
    norm = normalize(matrix, fit_normalizer(matrix, range(matrix.valid_from, n)))
    return TradingEnv(series, norm, EnvConfig(window=3), episode)


def test_collect_rollout_shapes_and_reset(rng):
    env = make_env(rng, n=12, episode=range(4, 8))  # 3 steps per episode
    nets = ActorCritic.draw(env.observation_dim, 1, (4,), rng)
    policy = nets.policy
    buffer = collect_rollout(env, nets, 8, rng)
    assert len(buffer) == 8
    assert buffer.obs.shape == (8, env.observation_dim)
    assert buffer.dones.tolist() == [0, 0, 1, 0, 0, 1, 0, 0]
    # mid-episode: the tail bootstraps from the value of the next observation
    assert buffer.last_value == nets.value_net.forward(env.observe()[None, :])[0, 0]
    assert collect_rollout(env, nets, 1, rng).last_value == 0.0  # the episode ends
    # episode boundaary resets the account inside the rollout
    assert buffer.obs[3][0] == 1.0 and buffer.obs[3][1] == 0.0
    # log probs are re-derivable from the stored pre-squash actions
    assert np.allclose(
        buffer.log_probs, policy.log_prob(buffer.obs, buffer.pre_actions), atol=1e-9
    )


def test_collect_rollout_continues_across_calls(rng):
    env = make_env(rng, n=12, episode=range(4, 8))
    nets = ActorCritic.draw(env.observation_dim, 1, (4,), rng)
    first = collect_rollout(env, nets, 2, rng)
    between = env.observe()
    second = collect_rollout(env, nets, 2, rng)
    assert first.dones.tolist() == [0, 0]
    assert second.dones.tolist() == [1, 0]  # picks up mid-episode
    assert np.array_equal(second.obs[0], between)
    assert first.last_value == second.values[0]  # bootstrapped from the state it left


@pytest.mark.parametrize("hidden", [(4,), (64, 64)])
@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_collect_rollout_is_bit_identical_to_per_step_sampling(seed, hidden, wide):
    """Two rollouts in a row, each crossing episode resets, against the per-step loop."""
    rng = np.random.default_rng(seed)
    series = make_random_series(rng, 520 if wide else 40)
    # 500 bars x 2 columns gives 1002 observation features
    config = FeatureConfig(window=500 if wide else 3, columns=("close", "return"))
    matrix = build_feature_matrix(series, config)
    norm = normalize(matrix, fit_normalizer(matrix, range(matrix.valid_from, len(series))))
    first_t = matrix.valid_from + config.window - 1
    episode = range(first_t, first_t + 4)  # 3 steps per episode
    envs = [TradingEnv(series, norm, EnvConfig(window=config.window), episode)
            for _ in range(2)]
    policy = GaussianPolicy(envs[0].observation_dim, 1, hidden, rng, out_scale=1.0)
    policy.log_std[:] = rng.normal()
    value_net = Mlp((envs[0].observation_dim,) + hidden + (1,), rng)
    nets = ActorCritic.of(policy.copy(), value_net.copy())  # the oracle keeps the loose nets
    assert wide == (envs[0].observation_dim >= 1000)
    got_rng = np.random.default_rng(seed + 100)
    want_rng = np.random.default_rng(seed + 100)
    for n_steps in (7, 5):
        got = collect_rollout(envs[0], nets, n_steps, got_rng)
        want = per_step_rollout(envs[1], policy, value_net, n_steps, want_rng)
        for name, expected in want.items():
            value = getattr(got, name)
            assert np.shape(value) == np.shape(expected), name
            assert np.asarray(value).tobytes() == np.asarray(expected).tobytes(), name
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert got.dones.sum() >= 1  # the second rollout crosses a reset too
    assert got.dones[-1] and got.last_value == 0.0  # and ends one: no bootstrap


def test_replay_buffer_ring_and_sampling(rng):
    buffer = ReplayBuffer(capacity=4, obs_dim=2, act_dim=1)
    with pytest.raises(EmptyBuffer):
        buffer.sample(1, rng)
    for i in range(6):
        buffer.add(np.full(2, i), np.array([i]), float(i), np.full(2, i + 1), False)
    assert len(buffer) == 4
    stored = sorted(buffer.rewards.tolist())
    assert stored == [2.0, 3.0, 4.0, 5.0]  # oldest two overwritten
    obs, pre, rewards, next_obs, dones = buffer.sample(10, rng)
    assert len(obs) == 4  # clamped to size
    assert sorted(rewards.tolist()) == stored  # without replacement
    assert np.allclose(next_obs[:, 0], rewards + 1)


@pytest.mark.parametrize("batch", [3, 8])
def test_replay_sample_into_caller_arrays_matches_the_new_arrays(batch):
    """The same draw and the same bytes, taken into the first rows of ``out``,
    also when the batch clamps to the buffer's 6 transitions."""
    buffer = ReplayBuffer(capacity=10, obs_dim=3, act_dim=1)
    fill = np.random.default_rng(1)
    for _ in range(6):
        buffer.add(fill.normal(size=3), fill.normal(size=1), fill.normal(), fill.normal(size=3),
                   fill.random() < 0.5)
    out = np.full((2, 8, 3), np.nan)
    rng, want_rng = np.random.default_rng(2), np.random.default_rng(2)
    for _ in range(2):
        got = buffer.sample(batch, rng, out)
        want = buffer.sample(batch, want_rng)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert np.shares_memory(got[0], out[0]) and np.shares_memory(got[3], out[1])
    k = min(batch, 6)
    assert np.isnan(out[:, k:]).all()
    assert rng.bit_generator.state == want_rng.bit_generator.state


def test_replay_buffer_capacity_validation():
    with pytest.raises(ValueError):
        ReplayBuffer(0, 2, 1)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 8))
def test_gae_property_matches_brute(seed, n):
    rng = np.random.default_rng(seed)
    rewards = rng.normal(size=n)
    values = rng.normal(size=n)
    dones = (rng.uniform(size=n) < 0.4).astype(float)
    last_value = float(rng.normal())
    gamma = float(rng.uniform(0.5, 1.0))
    lam = float(rng.uniform(0.0, 1.0))
    adv, ret = compute_gae(rewards, values, dones, last_value, gamma, lam)
    want_adv, want_ret = brute_gae(rewards, values, dones, last_value, gamma, lam)
    assert np.allclose(adv, want_adv, atol=1e-10)
    assert np.allclose(ret, want_ret, atol=1e-10)
