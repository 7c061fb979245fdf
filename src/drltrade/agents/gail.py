"""Adversarial imitation: a discriminator scores (obs, action) pairs and its
log-output becomes the generator's cost.

Convention: D -> 1 on generator samples, D -> 0 on expert samples, so the
imitation reward -log D grows as the policy becomes indistinguishable from
the expert. The policy improves by trust-region steps on advantages computed
from the relabeled rewards; actions enter the discriminator pre-squash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from ..domains import Checked, Count, Discount, Interval, Natural, NonNegative, Positive
from ..env import TradingEnv
from ..errors import EmptyDataset
from ..market_data import CSV_CHUNK_ROWS, write_csv
from ..neural import ActorCritic, Adam, GaussianPolicy, Mlp, TrainResult, check_finite, softplus
from .buffers import collect_rollout, rollout_advantages
from .trpo import trpo_step

D_CLAMP = 1e-8  # keeps -log D within [~0, 18.42]


@dataclass(frozen=True)
class GailConfig(Checked):
    gamma: Discount = 0.99
    gae_lambda: Annotated[float, Interval(0, 1, "[]")] = 0.95
    entropy_weight: Annotated[float, Interval(0, 1, "[]")] = 1.0  # as PpoConfig.ent_coef
    n_expert_episodes: Count = 10
    traj_limitation: Count = 7000
    disc_learning_rate: Positive = 3e-4
    max_kl: Annotated[float, Interval(0, 10, "(]")] = 0.01  # nats between policy steps
    cg_iters: Count = 10
    backtracks: Count = 10
    cg_damping: NonNegative = 0.1
    total_timesteps: Natural = 100_000
    horizon: Count = 1024
    hidden: tuple[Count, ...] = (64, 64)
    value_lr: Positive = 1e-3
    value_epochs: Count = 5


@dataclass
class ExpertDataset:
    """Behavior pairs from expert rollouts; actions are pre-squash means."""

    obs: np.ndarray  # (n, obs_dim)
    actions: np.ndarray  # (n, act_dim)

    def __post_init__(self):
        if len(self.obs) == 0:
            raise EmptyDataset("expert dataset has no pairs")
        if len(self.obs) != len(self.actions):
            raise ValueError(
                f"{len(self.obs)} observations vs {len(self.actions)} actions"
            )

    def __len__(self) -> int:
        return len(self.obs)


class _FloatReprs(dict):
    """float -> repr(float), formatting each distinct value once.

    Zeros are never stored, because 0.0 and -0.0 are one key but two reprs;
    NaNs are not stored either, since they never compare equal as keys.
    """

    def __missing__(self, value: float) -> str:
        text = repr(value)
        if value and value == value:
            self[value] = text
        return text


def save_expert_dataset(dataset: ExpertDataset, path) -> None:
    """One CSV row per pair, each value written as its shortest round-trip repr.

    Observation windows repeat each feature value over consecutive rows, so
    every distinct value is formatted once per call.
    """
    obs_dim = dataset.obs.shape[1]
    act_dim = dataset.actions.shape[1]
    header = [f"obs_{i}" for i in range(obs_dim)] + [f"act_{i}" for i in range(act_dim)]
    reprs = _FloatReprs()

    def rows():
        for start in range(0, len(dataset), CSV_CHUNK_ROWS):
            stop = start + CSV_CHUNK_ROWS
            pairs = np.hstack([dataset.obs[start:stop], dataset.actions[start:stop]])
            cells = map(reprs.__getitem__, pairs.ravel().tolist())
            # zip over one iterator repeated once per column groups it into rows
            yield from zip(*[cells] * len(header))

    write_csv(path, header, rows())


def generate_expert_dataset(
    policy: GaussianPolicy,
    env: TradingEnv,
    n_episodes: int = 10,
    traj_limitation: int = 7000,
) -> ExpertDataset:
    """Deterministic expert rollouts, concatenated then truncated.

    ``env.reset()`` starts the same episode every time and the expert acts on
    its mean, so every rollout is the same: it runs once and is repeated
    ``n_episodes`` times.
    """
    if n_episodes < 1:
        raise EmptyDataset("expert rollouts produced no transitions")
    obs_rows, act_rows = [], []
    obs = env.reset()
    done = False
    while not done:
        pre = policy.mean_net.forward(obs[None, :])
        obs_rows.append(obs)
        act_rows.append(pre[0])
        result = env.step(np.tanh(pre[0]))
        obs = result.observation
        done = result.done
    obs_arr = np.tile(np.array(obs_rows), (n_episodes, 1))[:traj_limitation]
    act_arr = np.tile(np.array(act_rows), (n_episodes, 1))[:traj_limitation]
    return ExpertDataset(obs=obs_arr, actions=act_arr)


def discriminator_logits(disc: Mlp, obs: np.ndarray, actions: np.ndarray) -> np.ndarray:
    return disc.forward(np.concatenate([obs, actions], axis=1))[:, 0]


def discriminator_probability(disc: Mlp, obs: np.ndarray, actions: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-discriminator_logits(disc, obs, actions)))


def discriminator_objective(gen_probs: np.ndarray, expert_probs: np.ndarray) -> float:
    """mean log D(gen) + mean log(1 - D(expert)); the quantity ascended."""
    return float(
        np.mean(np.log(np.clip(gen_probs, D_CLAMP, 1.0 - D_CLAMP)))
        + np.mean(np.log(np.clip(1.0 - expert_probs, D_CLAMP, 1.0 - D_CLAMP)))
    )


def discriminator_loss_and_grads(
    disc: Mlp,
    expert_obs: np.ndarray,
    expert_actions: np.ndarray,
    gen_obs: np.ndarray,
    gen_actions: np.ndarray,
) -> tuple[dict, np.ndarray]:
    """Loss and parameter gradients for one discriminator batch.

    The loss descended is the softplus form of the negated objective:
    mean softplus(-logit_gen) + mean softplus(logit_expert), which drives
    D toward 1 on generator pairs and 0 on expert pairs.
    """
    gen_in = np.concatenate([gen_obs, gen_actions], axis=1)
    exp_in = np.concatenate([expert_obs, expert_actions], axis=1)
    gen_out, gen_cache = disc.forward_cached(gen_in)
    exp_out, exp_cache = disc.forward_cached(exp_in)
    gen_logits, exp_logits = gen_out[:, 0], exp_out[:, 0]
    gen_d = 1.0 / (1.0 + np.exp(-gen_logits))
    exp_d = 1.0 / (1.0 + np.exp(-exp_logits))
    loss = float(np.mean(softplus(-gen_logits)) + np.mean(softplus(exp_logits)))

    dgen = (gen_d - 1.0)[:, None] / len(gen_logits)
    dexp = exp_d[:, None] / len(exp_logits)
    gen_grad = disc.backward(gen_cache, dgen)
    exp_grad = disc.backward(exp_cache, dexp)
    stats = {
        "disc_loss": loss,
        "disc_objective": discriminator_objective(gen_d, exp_d),
        "d_generator": float(gen_d.mean()),
        "d_expert": float(exp_d.mean()),
    }
    return stats, gen_grad + exp_grad


def gail_discriminator_update(
    disc: Mlp,
    disc_opt: Adam,
    expert_obs: np.ndarray,
    expert_actions: np.ndarray,
    gen_obs: np.ndarray,
    gen_actions: np.ndarray,
) -> dict:
    """One Adam step toward D=1 on generator pairs and D=0 on expert pairs."""
    stats, grad = discriminator_loss_and_grads(
        disc, expert_obs, expert_actions, gen_obs, gen_actions
    )
    disc_opt.step(disc.params(), grad)
    return stats


def gail_reward(disc: Mlp, obs: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """-log D(obs, action), clamped into [1e-8, 1 - 1e-8] before the log."""
    d = np.clip(discriminator_probability(disc, obs, actions), D_CLAMP, 1.0 - D_CLAMP)
    return -np.log(d)


def gail_train(
    env: TradingEnv,
    expert: ExpertDataset,
    config: GailConfig,
    rng: np.random.Generator,
) -> TrainResult:
    """Alternate rollouts, discriminator steps, and trust-region policy steps."""
    if expert.obs.shape[1] != env.observation_dim:
        raise ValueError(
            f"expert obs dim {expert.obs.shape[1]} != env obs dim {env.observation_dim}"
        )
    nets = ActorCritic.draw(env.observation_dim, env.action_dim, config.hidden, rng)
    policy, value_net = nets.policy, nets.value_net
    disc = Mlp((env.observation_dim + env.action_dim,) + config.hidden + (1,), rng)
    disc_opt = Adam(disc.params(), lr=config.disc_learning_rate)
    value_opt = Adam(value_net.params(), lr=config.value_lr)
    result = TrainResult({"policy": policy, "value_net": value_net, "discriminator": disc})
    n_iters = config.total_timesteps // config.horizon
    env.reset()
    for it in range(n_iters):
        buffer = collect_rollout(env, nets, config.horizon, rng)
        expert_idx = rng.choice(
            len(expert), size=min(config.horizon, len(expert)), replace=False
        )
        disc_stats = gail_discriminator_update(
            disc,
            disc_opt,
            expert.obs[expert_idx],
            expert.actions[expert_idx],
            buffer.obs,
            buffer.pre_actions,
        )
        rewards = gail_reward(disc, buffer.obs, buffer.pre_actions)
        advantages, returns = rollout_advantages(buffer, rewards, config.gamma,
                                                 config.gae_lambda)
        trpo_stats = trpo_step(
            policy,
            buffer.obs,
            buffer.pre_actions,
            advantages,
            buffer.log_probs,
            max_kl=config.max_kl,
            cg_iters=config.cg_iters,
            backtracks=config.backtracks,
            damping=config.cg_damping,
            ent_coef=config.entropy_weight,
        )
        for _ in range(config.value_epochs):
            out, cache = value_net.forward_cached(buffer.obs)
            err = out[:, 0] - returns
            grads = value_net.backward(cache, 2.0 * err[:, None] / len(returns))
            value_opt.step(value_net.params(), grads)
        step = (it + 1) * config.horizon
        stats = {
            "episode_return": float(rewards.sum()),
            "imitation_reward_mean": float(rewards.mean()),
            "kl": trpo_stats.kl,
            "surrogate": trpo_stats.surrogate,
            "step_accepted": float(trpo_stats.accepted),
            "entropy": policy.entropy(),
            **disc_stats,
        }
        check_finite(step, stats, result)
        result.history.append({"step": step, **stats})
    return result
