"""Adversarial imitation: a discriminator scores (obs, action) pairs and its
log-output becomes the generator's cost.

Convention: D -> 1 on generator samples, D -> 0 on expert samples, so the
imitation reward -log D grows as the policy becomes indistinguishable from
the expert. The policy improves by trust-region steps on advantages computed
from the relabeled rewards; actions enter the discriminator pre-squash. An
update writes its passes into arrays ``gail_train`` allocates once
(``GailBuffers``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from ..domains import Checked, Count, Discount, Interval, Natural, NonNegative, Positive
from ..env import TradingEnv
from ..errors import EmptyDataset
from ..market_data import CSV_CHUNK_ROWS, write_csv
from ..neural import (
    ActorCritic,
    Adam,
    GaussianPolicy,
    Mlp,
    TrainResult,
    cache_rows,
    check_finite,
    softplus,
)
from .buffers import RolloutBuffer, collect_rollout, rollout_advantages
from .trpo import TrpoBuffers, trpo_step

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
class GailBuffers:
    """The arrays one GAIL update writes into, allocated once for ``rows`` pairs.

    The generator's mean net and value net have the discriminator's hidden
    sizes and a one-column output, so one cache fits all three, and passes
    whose phases never overlap share two. ``caches[0]`` takes the
    discriminator's generator pass, then the reward pass, then TRPO's pass at
    the current parameters, then the value epochs; ``caches[1]`` the
    discriminator's expert pass (both stay live until their gradients are
    summed), then TRPO's line search. ``trpo`` is built on them. Every
    backward and ``jvp`` pass goes through ``scratch``. ``inputs`` holds the
    generator and the expert pairs; ``disc_grads`` the two discriminator
    gradients, ``value_grads`` the value net's. A batch of fewer pairs uses
    row views.
    """

    inputs: np.ndarray  # (2, rows, obs_dim + act_dim)
    caches: tuple[list, list]
    scratch: np.ndarray
    disc_grads: np.ndarray  # (2, discriminator parameters)
    value_grads: np.ndarray | None
    trpo: TrpoBuffers | None

    @classmethod
    def allocate(cls, disc: Mlp, rows: int,
                 generator: ActorCritic | None = None) -> "GailBuffers":
        """Buffers for ``rows`` pairs; without a ``generator``, only the
        discriminator's (``value_grads`` and ``trpo`` are None)."""
        caches = (disc.new_cache(rows), disc.new_cache(rows))
        scratch = disc.new_scratch(rows)
        value_grads = trpo = None
        if generator is not None:
            policy = generator.policy
            value_grads = np.empty_like(generator.value_net.theta)
            trpo = TrpoBuffers(*caches, scratch, dmean=np.empty((rows, policy.act_dim)),
                               vectors=np.empty((3, policy.theta.size)))
        return cls(inputs=np.empty((2, rows, disc.in_dim)), caches=caches, scratch=scratch,
                   disc_grads=np.empty((2, disc.theta.size)), value_grads=value_grads,
                   trpo=trpo)


@dataclass
class GailNets:
    generator: ActorCritic  # the policy and its value net
    disc: Mlp
    disc_opt: Adam
    value_opt: Adam
    buffers: GailBuffers  # at ``horizon`` rows


def make_gail_nets(obs_dim: int, act_dim: int, config: GailConfig,
                   rng: np.random.Generator) -> GailNets:
    """The generator, then the discriminator, drawn from ``rng`` in that order."""
    generator = ActorCritic.draw(obs_dim, act_dim, config.hidden, rng)
    disc = Mlp((obs_dim + act_dim,) + config.hidden + (1,), rng)
    return GailNets(generator=generator, disc=disc,
                    disc_opt=Adam(disc.params(), lr=config.disc_learning_rate),
                    value_opt=Adam(generator.value_net.params(), lr=config.value_lr),
                    buffers=GailBuffers.allocate(disc, config.horizon, generator))


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


def _disc_pass(disc: Mlp, obs: np.ndarray, actions: np.ndarray, buffers: GailBuffers,
               k: int):
    """(output, cache) of D on the pairs, through input and cache ``k`` of
    ``buffers``: 0 for generator pairs, 1 for expert pairs."""
    n = len(obs)
    pairs = np.concatenate([obs, actions], axis=1, out=buffers.inputs[k, :n])
    return disc.forward_cached(pairs, cache_rows(buffers.caches[k], n))


def discriminator_logits(disc: Mlp, obs: np.ndarray, actions: np.ndarray,
                         buffers: GailBuffers | None = None) -> np.ndarray:
    """D's logit per pair; the pass writes into the generator input and
    cache of ``buffers`` (new ones without them)."""
    if buffers is None:
        buffers = GailBuffers.allocate(disc, len(obs))
    return _disc_pass(disc, obs, actions, buffers, 0)[0][:, 0]


def discriminator_probability(disc: Mlp, obs: np.ndarray, actions: np.ndarray,
                              buffers: GailBuffers | None = None) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-discriminator_logits(disc, obs, actions, buffers)))


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
    buffers: GailBuffers | None = None,
) -> tuple[dict, np.ndarray]:
    """Loss and parameter gradients for one discriminator batch.

    The loss descended is the softplus form of the negated objective:
    mean softplus(-logit_gen) + mean softplus(logit_expert), which drives
    D toward 1 on generator pairs and 0 on expert pairs. The passes write
    into ``buffers`` (new ones without them); the gradient returned is
    ``buffers.disc_grads[0]``.
    """
    if buffers is None:
        buffers = GailBuffers.allocate(disc, max(len(gen_obs), len(expert_obs)))
    gen_out, gen_cache = _disc_pass(disc, gen_obs, gen_actions, buffers, 0)
    exp_out, exp_cache = _disc_pass(disc, expert_obs, expert_actions, buffers, 1)
    gen_logits, exp_logits = gen_out[:, 0], exp_out[:, 0]
    gen_d = 1.0 / (1.0 + np.exp(-gen_logits))
    exp_d = 1.0 / (1.0 + np.exp(-exp_logits))
    loss = float(np.mean(softplus(-gen_logits)) + np.mean(softplus(exp_logits)))

    dgen = (gen_d - 1.0)[:, None] / len(gen_logits)
    dexp = exp_d[:, None] / len(exp_logits)
    gen_grad, exp_grad = buffers.disc_grads
    disc.backward(gen_cache, dgen, out=gen_grad, scratch=buffers.scratch)
    disc.backward(exp_cache, dexp, out=exp_grad, scratch=buffers.scratch)
    stats = {
        "disc_loss": loss,
        "disc_objective": discriminator_objective(gen_d, exp_d),
        "d_generator": float(gen_d.mean()),
        "d_expert": float(exp_d.mean()),
    }
    return stats, np.add(gen_grad, exp_grad, out=gen_grad)


def gail_discriminator_update(
    disc: Mlp,
    disc_opt: Adam,
    expert_obs: np.ndarray,
    expert_actions: np.ndarray,
    gen_obs: np.ndarray,
    gen_actions: np.ndarray,
    buffers: GailBuffers | None = None,
) -> dict:
    """One Adam step toward D=1 on generator pairs and D=0 on expert pairs."""
    stats, grad = discriminator_loss_and_grads(
        disc, expert_obs, expert_actions, gen_obs, gen_actions, buffers
    )
    disc_opt.step(disc.params(), grad)
    return stats


def gail_reward(disc: Mlp, obs: np.ndarray, actions: np.ndarray,
                buffers: GailBuffers | None = None) -> np.ndarray:
    """-log D(obs, action), clamped into [1e-8, 1 - 1e-8] before the log.

    The pass writes into the generator input and cache of ``buffers``."""
    d = np.clip(discriminator_probability(disc, obs, actions, buffers), D_CLAMP, 1.0 - D_CLAMP)
    return -np.log(d)


def gail_update(nets: GailNets, rollout: RolloutBuffer, expert_obs: np.ndarray,
                expert_actions: np.ndarray, config: GailConfig) -> dict:
    """One update on a rollout of ``horizon`` steps: a discriminator step, the
    imitation rewards, a trust-region step and the value epochs, all through
    ``nets.buffers``. Returns the update's statistics."""
    buffers = nets.buffers
    policy, value_net = nets.generator.policy, nets.generator.value_net
    disc_stats = gail_discriminator_update(nets.disc, nets.disc_opt, expert_obs, expert_actions,
                                           rollout.obs, rollout.pre_actions, buffers)
    rewards = gail_reward(nets.disc, rollout.obs, rollout.pre_actions, buffers)
    advantages, returns = rollout_advantages(rollout, rewards, config.gamma, config.gae_lambda)
    trpo_stats = trpo_step(
        policy,
        rollout.obs,
        rollout.pre_actions,
        advantages,
        rollout.log_probs,
        max_kl=config.max_kl,
        cg_iters=config.cg_iters,
        backtracks=config.backtracks,
        damping=config.cg_damping,
        ent_coef=config.entropy_weight,
        buffers=buffers.trpo,
    )
    for _ in range(config.value_epochs):
        out, cache = value_net.forward_cached(rollout.obs, buffers.caches[0])
        err = out[:, 0] - returns
        value_net.backward(cache, 2.0 * err[:, None] / len(returns), out=buffers.value_grads,
                           scratch=buffers.scratch)
        nets.value_opt.step(value_net.params(), buffers.value_grads)
    return {
        "episode_return": float(rewards.sum()),
        "imitation_reward_mean": float(rewards.mean()),
        "kl": trpo_stats.kl,
        "surrogate": trpo_stats.surrogate,
        "step_accepted": float(trpo_stats.accepted),
        "entropy": policy.entropy(),
        **disc_stats,
    }


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
    nets = make_gail_nets(env.observation_dim, env.action_dim, config, rng)
    result = TrainResult({"policy": nets.generator.policy, "value_net": nets.generator.value_net,
                          "discriminator": nets.disc})
    n_iters = config.total_timesteps // config.horizon
    env.reset()
    for it in range(n_iters):
        rollout = collect_rollout(env, nets.generator, config.horizon, rng)
        expert_idx = rng.choice(
            len(expert), size=min(config.horizon, len(expert)), replace=False
        )
        stats = gail_update(nets, rollout, expert.obs[expert_idx], expert.actions[expert_idx],
                            config)
        step = (it + 1) * config.horizon
        check_finite(step, stats, result)
        result.history.append({"step": step, **stats})
    return result
