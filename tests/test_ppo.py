"""Clipped surrogate: analytic cases, gradient checks, and training loop."""

import numpy as np
import pytest

from conftest import make_random_series
from drltrade.agents import PpoConfig, ppo_surrogate, ppo_train
from drltrade.agents.ppo import (
    PpoBatch,
    PpoBuffers,
    log_std_mask,
    make_ppo_nets,
    ppo_epoch,
)
from drltrade.env import EnvConfig, TradingEnv
from drltrade.errors import DivergenceDetected, ShapeMismatch
from drltrade.features import FeatureConfig, build_feature_matrix, fit_normalizer, normalize
from drltrade.neural import (
    LOG_STD_MIN,
    Adam,
    GaussianPolicy,
    Mlp,
    TrainResult,
    check_finite,
    unflatten_params,
)
from oracles import (
    fd_gradient,
    two_net_ppo_epoch,
    two_net_ppo_train,
    vector_rel_error,
)

OBS_DIM = 3


def make_nets(rng, hidden=(6,)):
    """The policy and the value net, both of ``hidden``, on one block."""
    return make_ppo_nets(OBS_DIM, 1, PpoConfig(hidden=hidden), rng)


def surrogate(nets, obs, pre, old_log_probs, advantages, returns, config):
    """``ppo_surrogate`` on these arrays: (stats, policy_grads, value_grads)."""
    batch = PpoBatch.of(obs, pre, old_log_probs, advantages, returns)
    stats, grads = ppo_surrogate(nets, batch, config)
    return stats, grads[0], grads[1, :nets.value_net.theta.size]


def surrogate_with_ratios(nets, obs, pre, ratios, advantages, config):
    """Craft old log probs so the importance ratio equals ``ratios`` exactly."""
    old_log_probs = nets.policy.log_prob(obs, pre) - np.log(ratios)
    return surrogate(nets, obs, pre, old_log_probs, advantages, np.zeros(len(obs)), config)


# min(r*A, clip(r)*A) with eps=0.2; one sample per case, so loss = -objective
CLIP_CASES = [
    (1.5, 1.0, 1.2),  # clipped from above
    (0.5, 1.0, 0.5),  # below the band but shrinking helps, unclipped
    (1.5, -1.0, -1.5),  # pessimistic branch keeps the unclipped value
    (0.5, -1.0, -0.8),  # clipped from below
    (1.0, 2.0, 2.0),  # inside the band
]


@pytest.mark.parametrize("ratio,advantage,objective", CLIP_CASES)
def test_clip_objective_cases(rng, ratio, advantage, objective):
    nets = make_nets(rng)
    obs = rng.normal(size=(1, OBS_DIM))
    pre = rng.normal(size=(1, 1))
    config = PpoConfig(clip=0.2)
    stats, _, _ = surrogate_with_ratios(
        nets, obs, pre, np.array([ratio]), np.array([advantage]), config
    )
    assert stats["policy_loss"] == pytest.approx(-objective, abs=1e-9)


def test_unit_ratio_stats(rng):
    nets = make_nets(rng)
    obs = rng.normal(size=(4, OBS_DIM))
    pre = rng.normal(size=(4, 1))
    advantages = rng.normal(size=4)
    config = PpoConfig()
    stats, _, _ = surrogate_with_ratios(nets, obs, pre, np.ones(4), advantages, config)
    assert stats["approx_kl"] == pytest.approx(0.0, abs=1e-12)
    assert stats["clip_fraction"] == 0.0
    assert stats["policy_loss"] == pytest.approx(-advantages.mean(), abs=1e-9)


def test_clip_fraction_counts_out_of_band(rng):
    nets = make_nets(rng)
    obs = rng.normal(size=(4, OBS_DIM))
    pre = rng.normal(size=(4, 1))
    ratios = np.array([1.5, 1.0, 0.5, 1.1])
    stats, _, _ = surrogate_with_ratios(
        nets, obs, pre, ratios, np.ones(4), PpoConfig(clip=0.2)
    )
    assert stats["clip_fraction"] == pytest.approx(0.5)


def test_zero_advantage_leaves_only_entropy_gradient(rng):
    nets = make_nets(rng)
    obs = rng.normal(size=(5, OBS_DIM))
    pre = rng.normal(size=(5, 1))
    config = PpoConfig(ent_coef=0.005)
    _, policy_grads, _ = surrogate_with_ratios(
        nets, obs, pre, np.ones(5), np.zeros(5), config
    )
    for grad in policy_grads[:-1]:
        assert np.allclose(grad, 0.0, atol=1e-15)
    assert np.allclose(policy_grads[-1], -config.ent_coef)


def policy_only_loss(policy, obs, pre, old_log_probs, advantages, config):
    mean = policy.mean_net.forward(obs)
    new_log_probs = policy.log_prob_from_mean(mean, pre)
    ratio = np.exp(new_log_probs - old_log_probs)
    clipped = np.clip(ratio, 1.0 - config.clip, 1.0 + config.clip)
    objective = float(np.mean(np.minimum(ratio * advantages, clipped * advantages)))
    return -objective - config.ent_coef * policy.entropy()


def test_policy_gradient_matches_finite_differences(rng):
    nets = make_nets(rng, hidden=(5, 4))
    policy = nets.policy
    n = 12
    obs = rng.normal(size=(n, OBS_DIM))
    pre = rng.normal(size=(n, 1))
    advantages = rng.normal(size=n)
    # mix of in-band and clipped samples; kept away from the kink so the
    # central difference never straddles it
    ratios = rng.choice([0.6, 0.95, 1.05, 1.5], size=n)
    config = PpoConfig(clip=0.2, ent_coef=0.01)
    old_log_probs = policy.log_prob(obs, pre) - np.log(ratios)
    _, policy_grads, _ = surrogate(
        nets, obs, pre, old_log_probs, advantages, np.zeros(n), config
    )

    def loss_of(flat):
        probe = policy.copy()
        probe.set_params(flat)
        return policy_only_loss(probe, obs, pre, old_log_probs, advantages, config)

    numeric = fd_gradient(loss_of, policy.params())
    assert vector_rel_error(policy_grads, numeric) < 1e-4


def test_value_gradient_matches_finite_differences(rng):
    nets = make_nets(rng)
    policy, value_net = nets.policy, nets.value_net
    n = 8
    obs = rng.normal(size=(n, OBS_DIM))
    pre = rng.normal(size=(n, 1))
    returns = rng.normal(size=n)
    config = PpoConfig(vf_coef=0.5)
    old_log_probs = policy.log_prob(obs, pre)
    _, _, value_grads = surrogate(
        nets, obs, pre, old_log_probs, np.zeros(n), returns, config
    )

    def loss_of(flat):
        probe = value_net.copy()
        probe.set_params(flat)
        err = probe.forward(obs)[:, 0] - returns
        return config.vf_coef * float(np.mean(err**2))

    numeric = fd_gradient(loss_of, value_net.params())
    assert vector_rel_error(value_grads, numeric) < 1e-4


def test_log_std_mask_blocks_gradient_at_clamp(rng):
    policy = GaussianPolicy(OBS_DIM, 2, (4,), rng)
    assert log_std_mask(policy).tolist() == [1.0, 1.0]  # zeros are inside
    policy.log_std[0] = -20.0
    policy.log_std[1] = 1.9
    assert log_std_mask(policy).tolist() == [0.0, 1.0]


def test_config_validation():
    with pytest.raises(ValueError):
        PpoConfig(gamma=0.0)
    with pytest.raises(ValueError):
        PpoConfig(clip=1.0)
    with pytest.raises(ValueError, match=r"hidden\[1\] must be in \[1, inf\), got 0"):
        PpoConfig(hidden=(8, 0))


def test_check_finite_raises_with_artifacts(rng):
    nets = make_nets(rng)
    policy, value_net = nets.policy, nets.value_net
    result = TrainResult({"policy": policy, "value_net": value_net})
    check_finite(10, {"loss": 1.0}, result)  # sane state passes
    with pytest.raises(DivergenceDetected) as info:
        check_finite(10, {"loss": float("nan")}, result)
    assert info.value.artifacts["step"] == 10
    assert str(info.value) == "non-finite loss at step 10"
    value_net.params()[-1] = np.nan
    with pytest.raises(DivergenceDetected) as info:
        check_finite(11, {"loss": 1.0}, result)
    assert str(info.value) == "non-finite value_net at step 11"
    policy.log_std[:] = np.inf
    with pytest.raises(DivergenceDetected) as info:
        check_finite(42, {"loss": 1.0}, result)
    assert str(info.value) == "non-finite policy at step 42"
    artifacts = info.value.artifacts
    assert set(artifacts) == {"policy", "value_net", "step"}
    assert artifacts["step"] == 42
    restored = GaussianPolicy.from_json(artifacts["policy"])
    assert not np.isfinite(restored.log_std).any()


def make_env(rng):
    series = make_random_series(rng, 60)
    config = FeatureConfig(window=4, columns=("close", "return"))
    matrix = build_feature_matrix(series, config)
    norm = normalize(matrix, fit_normalizer(matrix, range(matrix.valid_from, 60)))
    return TradingEnv(series, norm, EnvConfig(window=4), range(4, 20))


def test_train_history_and_determinism(rng):
    env = make_env(rng)
    config = PpoConfig(n_steps=16, n_epochs=2, total_timesteps=64, hidden=(8,))
    result = ppo_train(env, config, np.random.default_rng(3))
    assert len(result.history) == 4
    for entry in result.history:
        assert {"step", "loss", "policy_loss", "value_loss", "entropy",
                "approx_kl", "clip_fraction"} <= set(entry)
        assert np.isfinite(entry["loss"])
    assert result.history[-1]["step"] == 64

    env2 = make_env(np.random.default_rng(0))
    repeat = ppo_train(env2, config, np.random.default_rng(3))
    assert result.policy.to_json() == repeat.policy.to_json()
    assert result.nets["value_net"].to_json() == repeat.nets["value_net"].to_json()
    assert result.history == repeat.history


def assert_epochs_match_the_two_net_epochs(obs_dim, rows, config, epochs=10, log_std=None):
    """Runs ``epochs`` epochs on the block and on two nets drawn alike, each
    with its own Adam, on one random batch; compares stats, gradients,
    parameters, Adam moments and step counts by bytes."""
    nets = make_ppo_nets(obs_dim, 1, config, np.random.default_rng(4))
    draws = np.random.default_rng(4)
    policy = GaussianPolicy(obs_dim, 1, config.hidden, draws)
    value_net = Mlp((obs_dim,) + config.hidden + (1,), draws)
    if log_std is not None:
        nets.policy.log_std[:] = policy.log_std[:] = log_std
    policy_opt = Adam(policy.params(), lr=config.learning_rate)
    value_opt = Adam(value_net.params(), lr=config.learning_rate)
    data = np.random.default_rng(5)
    obs = data.normal(size=(rows, obs_dim))
    _, pre, log_probs = policy.sample(obs, data)
    old_log_probs = log_probs + data.normal(scale=0.2, size=rows)
    advantages, returns = data.normal(size=rows), data.normal(size=rows)
    batch = PpoBatch.of(obs, pre, old_log_probs, advantages, returns)
    buffers = PpoBuffers.allocate(nets, rows)
    p = value_net.params().size
    for _ in range(epochs):
        stats = ppo_epoch(nets, batch, config, buffers)
        want, policy_grads, value_grads = two_net_ppo_epoch(
            policy, value_net, policy_opt, value_opt, obs, pre, old_log_probs, advantages,
            returns, config)
        assert list(stats) == list(want)
        assert np.array(list(stats.values())).tobytes() == np.array(list(want.values())).tobytes()
        assert buffers.grads[0].tobytes() == policy_grads.tobytes()
        assert buffers.grads[1, :p].tobytes() == value_grads.tobytes()
    assert nets.policy.params().tobytes() == policy.params().tobytes()
    assert nets.value_net.params().tobytes() == value_net.params().tobytes()
    for row, opt in ((nets.opt.m[0], policy_opt.m), (nets.opt.v[0], policy_opt.v),
                     (nets.opt.m[1, :p], value_opt.m), (nets.opt.v[1, :p], value_opt.v)):
        assert row.tobytes() == opt.tobytes()
    assert nets.opt.t == policy_opt.t == value_opt.t == epochs


@pytest.mark.parametrize("ent_coef", [0.0, 0.005])
@pytest.mark.parametrize("rows", [1, 32])
@pytest.mark.parametrize("hidden", [(64, 64), (8,), (5, 4)])
def test_epochs_on_the_block_are_bit_identical_to_the_two_net_epochs(hidden, rows, ent_coef):
    assert_epochs_match_the_two_net_epochs(26, rows, PpoConfig(ent_coef=ent_coef, hidden=hidden))


def test_epochs_on_the_block_match_the_two_net_epochs_with_log_std_at_its_floor():
    """log_std at LOG_STD_MIN: its mask is 0, so only the mean net and the value net move."""
    assert_epochs_match_the_two_net_epochs(26, 32, PpoConfig(), log_std=LOG_STD_MIN)


def test_epochs_on_the_block_match_the_two_net_epochs_at_paper_width():
    assert_epochs_match_the_two_net_epochs(1082, 32, PpoConfig(), epochs=4)


def test_train_is_bit_identical_to_the_two_net_train():
    """Checkpoint networks and log rows of a short run against the two-net loop."""
    config = PpoConfig(n_steps=16, n_epochs=4, total_timesteps=128, hidden=(16, 16))
    result = ppo_train(make_env(np.random.default_rng(0)), config, np.random.default_rng(3))
    want = two_net_ppo_train(make_env(np.random.default_rng(0)), config,
                             np.random.default_rng(3))
    assert result.networks_json() == want.networks_json()
    assert repr(result.history) == repr(want.history)


def test_parameter_and_gradient_views_share_memory_with_their_blocks(rng):
    """Every view the passes and Adam write through is a view, not a copy: a
    reshape that copied would drop the writes."""
    nets = make_nets(rng, hidden=(5, 4))
    views = [nets.policy.log_std, *nets.stack.weights, *nets.stack.biases]
    for net in (nets.policy.mean_net, nets.value_net):
        views += [net.params(), *net.weights, *net.biases]
    assert all(np.shares_memory(view, nets.block) for view in views)
    assert nets.opt.m.shape == nets.block.shape
    buffers = PpoBuffers.allocate(nets, 4)
    p = nets.value_net.params().size
    shapes = [a.shape[1:] for pair in zip(nets.stack.weights, nets.stack.biases) for a in pair]
    assert all(np.shares_memory(view, buffers.grads)
               for view in unflatten_params(buffers.grads[:, :p], shapes))
    obs, pre = rng.normal(size=(4, OBS_DIM)), rng.normal(size=(4, 1))
    batch = PpoBatch.of(obs, pre, nets.policy.log_prob(obs, pre), rng.normal(size=4),
                        rng.normal(size=4))
    _, grads = ppo_surrogate(nets, batch, PpoConfig(), buffers)
    assert grads is buffers.grads


def test_value_pad_stays_zero(rng):
    """The value row's act_dim pad entries: parameter, gradient and Adam moments."""
    nets = make_nets(rng, hidden=(8,))
    buffers = PpoBuffers.allocate(nets, 8)
    obs, pre = rng.normal(size=(8, OBS_DIM)), rng.normal(size=(8, 1))
    batch = PpoBatch.of(obs, pre, nets.policy.log_prob(obs, pre) + rng.normal(size=8),
                        rng.normal(size=8), rng.normal(size=8))
    p = nets.value_net.params().size
    zero = np.zeros(1).tobytes()
    for _ in range(20):
        ppo_epoch(nets, batch, PpoConfig(), buffers)
        for row in (nets.block, buffers.grads, nets.opt.m, nets.opt.v):
            assert row[1, p:].tobytes() == zero


def test_make_ppo_nets_refuses_a_vector_action(rng):
    with pytest.raises(ShapeMismatch, match="equal sizes"):
        make_ppo_nets(OBS_DIM, 2, PpoConfig(hidden=(4,)), rng)
