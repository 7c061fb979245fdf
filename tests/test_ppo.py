"""Clipped surrogate: analytic cases, gradient checks, and training loop."""

import numpy as np
import pytest

from conftest import make_random_series
from drltrade.agents import PpoConfig, ppo_surrogate, ppo_train
from drltrade.agents.ppo import log_std_mask
from drltrade.env import EnvConfig, TradingEnv
from drltrade.errors import DivergenceDetected
from drltrade.features import FeatureConfig, build_feature_matrix, fit_normalizer, normalize
from drltrade.neural import GaussianPolicy, Mlp, TrainResult, check_finite
from oracles import fd_gradient, vector_rel_error

OBS_DIM = 3


def make_nets(rng, act_dim=1, hidden=(6,)):
    policy = GaussianPolicy(OBS_DIM, act_dim, hidden, rng)
    value_net = Mlp((OBS_DIM, 6, 1), rng)
    return policy, value_net


def surrogate_with_ratios(policy, value_net, obs, pre, ratios, advantages, config):
    """Craft old log probs so the importance ratio equals ``ratios`` exactly."""
    old_log_probs = policy.log_prob(obs, pre) - np.log(ratios)
    returns = np.zeros(len(obs))
    return ppo_surrogate(
        policy, value_net, obs, pre, old_log_probs, advantages, returns, config
    )


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
    policy, value_net = make_nets(rng)
    obs = rng.normal(size=(1, OBS_DIM))
    pre = rng.normal(size=(1, 1))
    config = PpoConfig(clip=0.2)
    stats, _, _ = surrogate_with_ratios(
        policy, value_net, obs, pre, np.array([ratio]), np.array([advantage]), config
    )
    assert stats["policy_loss"] == pytest.approx(-objective, abs=1e-9)


def test_unit_ratio_stats(rng):
    policy, value_net = make_nets(rng)
    obs = rng.normal(size=(4, OBS_DIM))
    pre = rng.normal(size=(4, 1))
    advantages = rng.normal(size=4)
    config = PpoConfig()
    stats, _, _ = surrogate_with_ratios(
        policy, value_net, obs, pre, np.ones(4), advantages, config
    )
    assert stats["approx_kl"] == pytest.approx(0.0, abs=1e-12)
    assert stats["clip_fraction"] == 0.0
    assert stats["policy_loss"] == pytest.approx(-advantages.mean(), abs=1e-9)


def test_clip_fraction_counts_out_of_band(rng):
    policy, value_net = make_nets(rng)
    obs = rng.normal(size=(4, OBS_DIM))
    pre = rng.normal(size=(4, 1))
    ratios = np.array([1.5, 1.0, 0.5, 1.1])
    stats, _, _ = surrogate_with_ratios(
        policy, value_net, obs, pre, ratios, np.ones(4), PpoConfig(clip=0.2)
    )
    assert stats["clip_fraction"] == pytest.approx(0.5)


def test_zero_advantage_leaves_only_entropy_gradient(rng):
    policy, value_net = make_nets(rng)
    obs = rng.normal(size=(5, OBS_DIM))
    pre = rng.normal(size=(5, 1))
    config = PpoConfig(ent_coef=0.005)
    _, policy_grads, _ = surrogate_with_ratios(
        policy, value_net, obs, pre, np.ones(5), np.zeros(5), config
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
    policy, value_net = make_nets(rng, hidden=(5, 4))
    n = 12
    obs = rng.normal(size=(n, OBS_DIM))
    pre = rng.normal(size=(n, 1))
    advantages = rng.normal(size=n)
    # mix of in-band and clipped samples; kept away from the kink so the
    # central difference never straddles it
    ratios = rng.choice([0.6, 0.95, 1.05, 1.5], size=n)
    config = PpoConfig(clip=0.2, ent_coef=0.01)
    old_log_probs = policy.log_prob(obs, pre) - np.log(ratios)
    _, policy_grads, _ = ppo_surrogate(
        policy, value_net, obs, pre, old_log_probs, advantages, np.zeros(n), config
    )

    def loss_of(flat):
        probe = policy.copy()
        probe.set_params(flat)
        return policy_only_loss(probe, obs, pre, old_log_probs, advantages, config)

    numeric = fd_gradient(loss_of, policy.params())
    assert vector_rel_error(policy_grads, numeric) < 1e-4


def test_value_gradient_matches_finite_differences(rng):
    policy, value_net = make_nets(rng)
    n = 8
    obs = rng.normal(size=(n, OBS_DIM))
    pre = rng.normal(size=(n, 1))
    returns = rng.normal(size=n)
    config = PpoConfig(vf_coef=0.5)
    old_log_probs = policy.log_prob(obs, pre)
    _, _, value_grads = ppo_surrogate(
        policy, value_net, obs, pre, old_log_probs, np.zeros(n), returns, config
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
    policy, value_net = make_nets(rng)
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
