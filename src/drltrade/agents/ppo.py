"""Clipped-surrogate policy optimization with a learned value baseline.

The per-sample objective is min(r*A, clip(r, 1-eps, 1+eps)*A) with
r = exp(log_prob_new - log_prob_old). Gradients are computed analytically:
the derivative of the objective with respect to the new log-probability is
r*A wherever the unclipped branch is active and zero otherwise.

The policy and the value net live on one parameter block (``ActorCritic``),
so each epoch runs one stacked forward and backward pass and one Adam step,
writing into arrays ``ppo_train`` allocates once (``PpoBuffers``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from ..domains import Checked, Count, Discount, Interval, Natural, NonNegative, Positive
from ..env import TradingEnv
from ..neural import (
    ActorCritic,
    Adam,
    GaussianPolicy,
    TrainResult,
    check_finite,
    squashed_log_density,
    tanh_log_det_jacobian,
)
from .buffers import collect_rollout, rollout_advantages


@dataclass(frozen=True)
class PpoConfig(Checked):
    gamma: Discount = 0.99
    gae_lambda: Annotated[float, Interval(0, 1, "[]")] = 0.95
    clip: Annotated[float, Interval(0, 1, "()")] = 0.2
    ent_coef: Annotated[float, Interval(0, 1, "[]")] = 0.005  # above 1 it outweighs the surrogate
    vf_coef: NonNegative = 0.5
    learning_rate: Positive = 0.005
    n_steps: Count = 32
    n_epochs: Count = 10
    total_timesteps: Natural = 200_000
    hidden: tuple[Count, ...] = (64, 64)


def policy_param_grads(
    policy: GaussianPolicy,
    cache,
    mean: np.ndarray,
    pre_actions: np.ndarray,
    dloss_dlogp: np.ndarray,
    dloss_dlogstd_extra: np.ndarray,
    out=None,
    scratch=None,
) -> np.ndarray:
    """Chain d(loss)/d(log_prob) through the Gaussian into parameter space.

    For lp = -0.5*((u - mu)/sigma)^2 - log(sigma) + const(u):
      d(lp)/d(mu)        = (u - mu) / sigma^2
      d(lp)/d(log_sigma) = ((u - mu)/sigma)^2 - 1
    dloss_dlogstd_extra collects terms that hit log_std directly (entropy).
    The gradient, laid out as ``policy.params()``, is written into ``out``
    when given, else into a new array; the mean net's backward pass goes
    through ``scratch`` (see ``Mlp.backward``).
    """
    if out is None:
        out = np.empty_like(policy.theta)
    n_net = policy.mean_net.theta.size
    std = policy.std()
    z = (pre_actions - mean) / std
    grad_mean = dloss_dlogp[:, None] * z / std
    policy.mean_net.backward(cache, grad_mean, out=out[:n_net], scratch=scratch)
    grad_log_std = (dloss_dlogp[:, None] * (z**2 - 1.0)).sum(axis=0)
    np.multiply(grad_log_std + dloss_dlogstd_extra, policy.log_std_mask(), out=out[n_net:])
    return out


@dataclass
class PpoBatch:
    """One rollout as its epochs read it, with the loss terms no epoch changes."""

    obs: np.ndarray  # (n, obs_dim)
    pre_actions: np.ndarray  # (n, act_dim)
    old_log_probs: np.ndarray  # (n,)
    advantages: np.ndarray  # (n,)
    returns: np.ndarray  # (n,)
    log_det: np.ndarray  # tanh_log_det_jacobian(pre_actions)
    improving: np.ndarray  # advantages >= 0: the unclipped branch needs ratio <= 1 + clip

    @classmethod
    def of(cls, obs, pre_actions, old_log_probs, advantages, returns) -> "PpoBatch":
        return cls(obs, pre_actions, old_log_probs, advantages, returns,
                   tanh_log_det_jacobian(pre_actions), advantages >= 0.0)


@dataclass
class PpoBuffers:
    """The arrays one epoch writes into, allocated once for ``rows`` samples:
    the stack's forward cache, its ``(2, rows, 1)`` output gradient, the
    gradient block (laid out as ``ActorCritic.block``; the pad is never
    written, so it stays 0) and the backward pass's scratch pair."""

    cache: list
    grad_out: np.ndarray
    grads: np.ndarray
    scratch: np.ndarray

    @classmethod
    def allocate(cls, nets: ActorCritic, rows: int) -> "PpoBuffers":
        return cls(cache=nets.stack.new_cache(rows),
                   grad_out=np.empty((2, rows, nets.stack.out_dim)),
                   grads=np.zeros_like(nets.block), scratch=nets.stack.new_scratch(rows))


def ppo_surrogate(nets: ActorCritic, batch: PpoBatch, config: PpoConfig,
                  buffers: PpoBuffers | None = None):
    """Full loss with analytic gradients for one epoch over a batch.

    Returns (stats, grads); the loss minimized is
    -mean(clipped objective) + vf_coef * value_MSE - ent_coef * entropy, and
    ``grads`` is ``buffers.grads``, laid out as ``nets.block``. Without
    ``buffers``, new ones are allocated for the batch's rows.
    """
    n = len(batch.obs)
    if buffers is None:
        buffers = PpoBuffers.allocate(nets, n)
    policy = nets.policy
    out, cache = nets.stack.forward_cached(batch.obs, buffers.cache)
    mean, values = out[0], out[1, :, 0]
    log_std = policy.clamped_log_std()
    std = np.exp(log_std)
    z = (batch.pre_actions - mean) / std
    new_log_probs = squashed_log_density(z, log_std, batch.log_det)
    ratio = np.exp(new_log_probs - batch.old_log_probs)
    # np.clip's and np.mean's values without their dispatch cost.
    clipped_ratio = np.minimum(np.maximum(ratio, 1.0 - config.clip), 1.0 + config.clip)
    per_sample = np.minimum(ratio * batch.advantages, clipped_ratio * batch.advantages)
    entropy = policy.entropy()

    value_err = values - batch.returns
    value_loss = config.vf_coef * float((value_err**2).sum() / n)
    policy_loss = -float(per_sample.sum() / n)
    loss = policy_loss + value_loss - config.ent_coef * entropy

    # Unclipped branch active iff moving the ratio can still help the objective.
    active = np.where(
        batch.improving, ratio <= 1.0 + config.clip, ratio >= 1.0 - config.clip
    ).astype(float)
    dloss_dlogp = -active * ratio * batch.advantages / n
    # The chain rule of policy_param_grads for the mean and log_std, and the
    # value MSE's for the value, with the entropy's -ent_coef on log_std.
    grad_mean, grad_value = buffers.grad_out
    np.divide(np.multiply(dloss_dlogp[:, None], z, out=grad_mean), std, out=grad_mean)
    np.divide(np.multiply(config.vf_coef * 2.0, value_err[:, None], out=grad_value), n,
              out=grad_value)
    grads = buffers.grads
    p = nets.stack.theta.shape[-1]
    nets.stack.backward(cache, buffers.grad_out, out=grads[:, :p], scratch=buffers.scratch)
    grad_log_std = (dloss_dlogp[:, None] * (z**2 - 1.0)).sum(axis=0)
    np.multiply(grad_log_std - config.ent_coef, policy.log_std_mask(), out=grads[0, p:])

    stats = {
        "loss": loss,
        "policy_loss": policy_loss,
        "value_loss": value_loss,
        "entropy": entropy,
        "approx_kl": float((batch.old_log_probs - new_log_probs).sum() / n),
        "clip_fraction": float((np.abs(ratio - 1.0) > config.clip).sum() / n),
    }
    return stats, grads


def ppo_epoch(nets: ActorCritic, opt: Adam, batch: PpoBatch, config: PpoConfig,
              buffers: PpoBuffers | None = None) -> dict:
    """One epoch: ``ppo_surrogate``, then one step of ``opt``, an Adam over
    ``nets.block``; returns the stats."""
    stats, grads = ppo_surrogate(nets, batch, config, buffers)
    opt.step(nets.block, grads)
    return stats


def ppo_train(
    env: TradingEnv,
    config: PpoConfig,
    rng: np.random.Generator,
) -> TrainResult:
    """Alternate rollout collection and clipped-surrogate epochs."""
    nets = ActorCritic.draw(env.observation_dim, env.action_dim, config.hidden, rng)
    opt = Adam(nets.block, lr=config.learning_rate)
    buffers = PpoBuffers.allocate(nets, config.n_steps)
    result = TrainResult({"policy": nets.policy, "value_net": nets.value_net})
    n_updates = config.total_timesteps // config.n_steps
    episode_return = 0.0
    last_episode_return = float("nan")
    env.reset()
    for update in range(n_updates):
        buffer = collect_rollout(env, nets, config.n_steps, rng)
        for r, d in zip(buffer.rewards, buffer.dones):
            episode_return += r
            if d:
                last_episode_return = episode_return
                episode_return = 0.0
        advantages, returns = rollout_advantages(buffer, buffer.rewards, config.gamma,
                                                 config.gae_lambda)
        batch = PpoBatch.of(buffer.obs, buffer.pre_actions, buffer.log_probs, advantages,
                            returns)
        stats = {}
        for _ in range(config.n_epochs):
            stats = ppo_epoch(nets, opt, batch, config, buffers)
        step = (update + 1) * config.n_steps
        stats = {"mean_reward": float(buffer.rewards.mean()), **stats}
        check_finite(step, stats, result)
        result.history.append({"step": step, "episode_return": last_episode_return, **stats})
    return result
