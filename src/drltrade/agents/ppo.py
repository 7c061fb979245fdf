"""Clipped-surrogate policy optimization with a learned value baseline.

The per-sample objective is min(r*A, clip(r, 1-eps, 1+eps)*A) with
r = exp(log_prob_new - log_prob_old). Gradients are computed analytically:
the derivative of the objective with respect to the new log-probability is
r*A wherever the unclipped branch is active and zero otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..env import TradingEnv
from ..neural import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    Adam,
    GaussianPolicy,
    Mlp,
    TrainResult,
    check_finite,
    flatten_params,
)
from .buffers import RolloutBuffer, collect_rollout, rollout_advantages


@dataclass(frozen=True)
class PpoConfig:
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip: float = 0.2
    ent_coef: float = 0.005
    vf_coef: float = 0.5
    learning_rate: float = 0.005
    n_steps: int = 32
    n_epochs: int = 10
    total_timesteps: int = 200_000
    hidden: tuple[int, ...] = (64, 64)

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.n_epochs < 1:
            raise ValueError(f"n_epochs must be >= 1, got {self.n_epochs}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if not 0.0 < self.clip < 1.0:
            raise ValueError(f"clip must be in (0, 1), got {self.clip}")


def log_std_mask(policy: GaussianPolicy) -> np.ndarray:
    """1 where log_std is inside the clamp range (gradient passes), else 0."""
    return (
        (policy.log_std > LOG_STD_MIN) & (policy.log_std < LOG_STD_MAX)
    ).astype(float)


def policy_param_grads(
    policy: GaussianPolicy,
    cache,
    mean: np.ndarray,
    pre_actions: np.ndarray,
    dloss_dlogp: np.ndarray,
    dloss_dlogstd_extra: np.ndarray,
) -> np.ndarray:
    """Chain d(loss)/d(log_prob) through the Gaussian into parameter space.

    For lp = -0.5*((u - mu)/sigma)^2 - log(sigma) + const(u):
      d(lp)/d(mu)        = (u - mu) / sigma^2
      d(lp)/d(log_sigma) = ((u - mu)/sigma)^2 - 1
    dloss_dlogstd_extra collects terms that hit log_std directly (entropy).
    """
    std = policy.std()
    z = (pre_actions - mean) / std
    grad_mean = dloss_dlogp[:, None] * z / std
    net_grad = policy.mean_net.backward(cache, grad_mean)
    grad_log_std = (dloss_dlogp[:, None] * (z**2 - 1.0)).sum(axis=0)
    grad_log_std = (grad_log_std + dloss_dlogstd_extra) * log_std_mask(policy)
    return flatten_params([net_grad, grad_log_std])


def ppo_surrogate(
    policy: GaussianPolicy,
    value_net: Mlp,
    obs: np.ndarray,
    pre_actions: np.ndarray,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    returns: np.ndarray,
    config: PpoConfig,
):
    """Full loss with analytic gradients for one epoch over a batch.

    Returns (stats, policy_grads, value_grads); the loss minimized is
    -mean(clipped objective) + vf_coef * value_MSE - ent_coef * entropy.
    """
    n = len(obs)
    mean, cache = policy.mean_net.forward_cached(obs)
    new_log_probs = policy.log_prob_from_mean(mean, pre_actions)
    ratio = np.exp(new_log_probs - old_log_probs)
    clipped_ratio = np.clip(ratio, 1.0 - config.clip, 1.0 + config.clip)
    per_sample = np.minimum(ratio * advantages, clipped_ratio * advantages)
    entropy = policy.entropy()

    values_out, value_cache = value_net.forward_cached(obs)
    values = values_out[:, 0]
    value_err = values - returns
    value_loss = config.vf_coef * float(np.mean(value_err**2))
    policy_loss = -float(np.mean(per_sample))
    loss = policy_loss + value_loss - config.ent_coef * entropy

    # Unclipped branch active iff moving the ratio can still help the objective.
    active = np.where(
        advantages >= 0.0, ratio <= 1.0 + config.clip, ratio >= 1.0 - config.clip
    ).astype(float)
    dloss_dlogp = -active * ratio * advantages / n
    act_dim = policy.act_dim
    ent_grad = -config.ent_coef * np.ones(act_dim)
    policy_grads = policy_param_grads(
        policy, cache, mean, pre_actions, dloss_dlogp, ent_grad
    )
    dloss_dv = config.vf_coef * 2.0 * value_err[:, None] / n
    value_grads = value_net.backward(value_cache, dloss_dv)

    stats = {
        "loss": loss,
        "policy_loss": policy_loss,
        "value_loss": value_loss,
        "entropy": entropy,
        "approx_kl": float(np.mean(old_log_probs - new_log_probs)),
        "clip_fraction": float(np.mean((np.abs(ratio - 1.0) > config.clip))),
    }
    return stats, policy_grads, value_grads


@dataclass
class PpoResult(TrainResult):
    policy: GaussianPolicy
    value_net: Mlp
    history: list[dict] = field(default_factory=list)

    def named_nets(self) -> dict:
        return {"policy": self.policy, "value_net": self.value_net}


def ppo_train(
    env: TradingEnv,
    config: PpoConfig,
    rng: np.random.Generator,
) -> PpoResult:
    """Alternate rollout collection and clipped-surrogate epochs."""
    policy = GaussianPolicy(env.observation_dim, env.action_dim, config.hidden, rng)
    value_net = Mlp((env.observation_dim,) + config.hidden + (1,), rng)
    policy_opt = Adam(policy.params(), lr=config.learning_rate)
    value_opt = Adam(value_net.params(), lr=config.learning_rate)
    result = PpoResult(policy=policy, value_net=value_net)
    n_updates = config.total_timesteps // config.n_steps
    episode_return = 0.0
    last_episode_return = float("nan")
    env.reset()
    for update in range(n_updates):
        buffer = collect_rollout(env, policy, value_net, config.n_steps, rng)
        for r, d in zip(buffer.rewards, buffer.dones):
            episode_return += r
            if d:
                last_episode_return = episode_return
                episode_return = 0.0
        advantages, returns = rollout_advantages(
            buffer, buffer.rewards, value_net, config.gamma, config.gae_lambda
        )
        stats = {}
        for _ in range(config.n_epochs):
            stats, policy_grads, value_grads = ppo_surrogate(
                policy,
                value_net,
                buffer.obs,
                buffer.pre_actions,
                buffer.log_probs,
                advantages,
                returns,
                config,
            )
            policy_opt.step(policy.params(), policy_grads)
            value_opt.step(value_net.params(), value_grads)
        step = (update + 1) * config.n_steps
        stats = {"mean_reward": float(buffer.rewards.mean()), **stats}
        check_finite(step, stats, result)
        result.history.append({"step": step, "episode_return": last_episode_return, **stats})
    return result
