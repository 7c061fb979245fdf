"""Experience storage shared by the training algorithms.

RolloutBuffer holds one on-policy batch; ReplayBuffer is the off-policy ring.
Advantages come from generalized advantage estimation and are returned raw;
trainers normalize per update batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EmptyBuffer
from ..env import TradingEnv
from ..neural import GaussianPolicy, Mlp


@dataclass
class RolloutBuffer:
    """One contiguous on-policy collection of n_steps transitions.

    Actions are stored pre-squash so log-densities can be re-evaluated without
    inverting tanh. last_obs/last_done describe the state after the final
    transition, for bootstrapping.
    """

    obs: np.ndarray  # (n, obs_dim)
    pre_actions: np.ndarray  # (n, act_dim)
    log_probs: np.ndarray  # (n,)
    rewards: np.ndarray  # (n,)
    dones: np.ndarray  # (n,) float 0/1
    values: np.ndarray  # (n,)
    last_obs: np.ndarray
    last_done: bool

    def __len__(self) -> int:
        return len(self.rewards)


def collect_rollout(
    env: TradingEnv,
    policy: GaussianPolicy,
    value_net: Mlp,
    n_steps: int,
    rng: np.random.Generator,
) -> RolloutBuffer:
    """Step the env n_steps times with sampled actions, resetting on done.

    Each step runs one forward pass of a stack of the policy mean net and
    the value net, so both need the same ``sizes`` (and the action is scalar).
    The rollout's noise is drawn in one call; the stored pre-squash actions
    and their log-probs are computed after the loop. The buffer, and the
    state ``rng`` is left in, are those of one ``policy.sample`` and one
    ``value_net.forward`` per step, bit for bit.
    """
    forward = Mlp.stack((policy.mean_net, value_net)).forward
    scaled_noise = policy.std() * rng.standard_normal((n_steps, policy.act_dim))
    obs_rows = np.empty((n_steps, env.observation_dim))
    outputs = np.empty((n_steps, 2))  # the policy mean and the value, per step
    reward_rows = np.empty(n_steps)
    done_rows = np.zeros(n_steps)
    obs = env.reset() if env.done else env.observe()
    for i in range(n_steps):
        out = forward(obs[None, :])
        outputs[i] = out[:, 0, 0]
        result = env.step(np.tanh(out[0, 0] + scaled_noise[i]))
        obs_rows[i] = obs
        reward_rows[i] = result.reward
        done_rows[i] = float(result.done)
        obs = env.reset() if result.done else result.observation
    means = outputs[:, :1]
    pre_rows = means + scaled_noise
    return RolloutBuffer(
        obs=obs_rows,
        pre_actions=pre_rows,
        log_probs=policy.log_prob_from_mean(means, pre_rows),
        rewards=reward_rows,
        dones=done_rows,
        values=outputs[:, 1],
        last_obs=obs,
        last_done=bool(done_rows[-1]),
    )


def compute_gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    last_value: float,
    gamma: float,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Raw generalized advantages and value targets (returns = A + V).

    delta_t = r_t + gamma * V(s_{t+1}) * (1 - done_t) - V(s_t)
    A_t = delta_t + gamma * lam * (1 - done_t) * A_{t+1}
    """
    n = len(rewards)
    if n == 0:
        raise EmptyBuffer("cannot compute advantages on an empty buffer")
    advantages = np.empty(n)
    next_value = last_value
    running = 0.0
    for t in range(n - 1, -1, -1):
        nonterminal = 1.0 - dones[t]
        delta = rewards[t] + gamma * next_value * nonterminal - values[t]
        running = delta + gamma * lam * nonterminal * running
        advantages[t] = running
        next_value = values[t]
    return advantages, advantages + values


def normalize_advantages(advantages: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    return (advantages - advantages.mean()) / (advantages.std() + eps)


def rollout_advantages(buffer: RolloutBuffer, rewards: np.ndarray, value_net: Mlp,
                       gamma: float, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Normalized advantages and raw value targets of one rollout, scored by
    ``rewards``; the tail bootstraps from the last value unless an episode ended."""
    last_value = (
        0.0 if buffer.last_done else float(value_net.forward(buffer.last_obs[None, :])[0, 0])
    )
    advantages, returns = compute_gae(rewards, buffer.values, buffer.dones, last_value,
                                      gamma, lam)
    return normalize_advantages(advantages), returns


class ReplayBuffer:
    """Fixed-capacity ring of (obs, pre_action, reward, next_obs, done)."""

    def __init__(self, capacity: int, obs_dim: int, act_dim: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.obs = np.empty((capacity, obs_dim))
        self.pre_actions = np.empty((capacity, act_dim))
        self.rewards = np.empty(capacity)
        self.next_obs = np.empty((capacity, obs_dim))
        self.dones = np.empty(capacity)
        self.size = 0
        self._cursor = 0

    def __len__(self) -> int:
        return self.size

    def add(self, obs, pre_action, reward, next_obs, done) -> None:
        i = self._cursor
        self.obs[i] = obs
        self.pre_actions[i] = pre_action
        self.rewards[i] = reward
        self.next_obs[i] = next_obs
        self.dones[i] = float(done)
        self._cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator):
        """Uniform without replacement; batch clamps to the current size."""
        if self.size == 0:
            raise EmptyBuffer("replay buffer is empty")
        k = min(batch_size, self.size)
        idx = rng.choice(self.size, size=k, replace=False)
        return (
            self.obs[idx],
            self.pre_actions[idx],
            self.rewards[idx],
            self.next_obs[idx],
            self.dones[idx],
        )
