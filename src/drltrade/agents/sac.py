"""Off-policy soft actor-critic with automatic entropy temperature.

Twin Q networks regress toward y = r + gamma*(1-done)*(min Q' - alpha*log pi);
the actor descends alpha*log pi - min Q via the reparameterization
u = mu + sigma*noise, a = tanh(u). For that path:

  d(log pi)/d(mu)        = 2*tanh(u)
  d(log pi)/d(log_sigma) = -1 + 2*tanh(u)*sigma*noise
  d(a)/d(mu)             = 1 - a^2
  d(a)/d(log_sigma)      = (1 - a^2)*sigma*noise

and dQ/da comes from the critic's input gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Annotated

import numpy as np

from ..domains import Checked, Count, Discount, Finite, Interval, Natural, Positive
from ..env import TradingEnv
from ..errors import BufferTooSmall
from ..neural import Adam, GaussianPolicy, Mlp, TrainResult, check_finite
from .buffers import ReplayBuffer
from .ppo import log_std_mask


@dataclass(frozen=True)
class SacConfig(Checked):
    gamma: Discount = 0.99
    learning_rate: Positive = 0.01
    buffer_size: Count = 1000
    batch_size: Count = 1000  # clamped to the current buffer size
    alpha_init: Positive = 0.1
    target_entropy: Finite | None = None  # None: -action_dim
    learning_starts: Natural = 200
    tau: Annotated[float, Interval(0, 1, "(]")] = 0.005
    total_timesteps: Natural = 50_000
    hidden: tuple[Count, ...] = (64, 64)
    log_every: Count = 1000


@dataclass
class SacBuffers:
    """The arrays one SAC update writes into, allocated once at the batch size.

    Each call site has its own set, so no pass overwrites what another still
    reads: ``policy`` serves the next-state sample, then the actor pass;
    ``critic`` the regression passes of Q1, then Q2; ``targets`` Q1' and Q2',
    whose outputs are both read afterwards; ``actor`` Q1 and Q2 on the
    actor's actions. Every backward and input-gradient pass shares
    ``scratch``. ``inputs`` holds the Q inputs (s', a'), (s, a) and
    (s, pi(s)). An update on fewer rows uses ``rows(n)``.
    """

    policy: list
    critic: list
    targets: tuple[list, list]
    actor: tuple[list, list]
    scratch: np.ndarray
    inputs: np.ndarray
    critic_grads: np.ndarray
    actor_grads: np.ndarray

    @classmethod
    def allocate(cls, policy: GaussianPolicy, critic: Mlp, rows: int) -> "SacBuffers":
        """Buffers for ``rows`` transitions, ``policy`` and two nets sized like ``critic``."""
        width = max(policy.mean_net.sizes[1:-1] + critic.sizes[1:-1], default=0)
        return cls(
            policy=policy.mean_net.new_cache(rows),
            critic=critic.new_cache(rows),
            targets=(critic.new_cache(rows), critic.new_cache(rows)),
            actor=(critic.new_cache(rows), critic.new_cache(rows)),
            scratch=np.empty((2, rows * width)),
            inputs=np.empty((3, rows, critic.in_dim)),
            critic_grads=np.empty((2, critic.theta.size)),
            actor_grads=np.empty_like(policy.params()),
        )

    def rows(self, n: int) -> "SacBuffers":
        """The same buffers with every cache cut to its first ``n`` rows."""
        def view(cache):
            return [None] + [a[:n] for a in cache[1:]]
        return replace(self, policy=view(self.policy), critic=view(self.critic),
                       targets=tuple(map(view, self.targets)),
                       actor=tuple(map(view, self.actor)), inputs=self.inputs[:, :n])


@dataclass
class SacNets:
    policy: GaussianPolicy
    critics: Mlp  # a stack of the twin critics Q1, Q2
    targets: Mlp  # their Polyak-averaged copies, stacked the same way
    log_alpha: np.ndarray  # shape (1,), alpha = exp(log_alpha)
    policy_opt: Adam
    critics_opt: Adam
    alpha_opt: Adam
    target_entropy: float
    buffers: SacBuffers  # at min(batch_size, buffer_size) rows

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha[0]))


def make_sac_nets(obs_dim: int, act_dim: int, config: SacConfig,
                  rng: np.random.Generator) -> SacNets:
    policy = GaussianPolicy(obs_dim, act_dim, config.hidden, rng)
    q_sizes = (obs_dim + act_dim,) + config.hidden + (1,)
    critics = Mlp.stack((Mlp(q_sizes, rng), Mlp(q_sizes, rng)))
    log_alpha = np.array([np.log(config.alpha_init)])
    target_entropy = (
        config.target_entropy if config.target_entropy is not None else -float(act_dim)
    )
    return SacNets(
        policy=policy,
        critics=critics,
        targets=critics.copy(),
        log_alpha=log_alpha,
        policy_opt=Adam(policy.params(), lr=config.learning_rate),
        critics_opt=Adam(critics.params(), lr=config.learning_rate),
        alpha_opt=Adam(log_alpha, lr=config.learning_rate),
        target_entropy=target_entropy,
        buffers=SacBuffers.allocate(policy, critics.members()[0],
                                    min(config.batch_size, config.buffer_size)),
    )


def sac_target(rewards, dones, q1_next, q2_next, next_log_probs,
               alpha: float, gamma: float) -> np.ndarray:
    """y = r + gamma*(1-done)*(min(Q1', Q2') - alpha*log pi(a'|s'))."""
    soft_value = np.minimum(q1_next, q2_next) - alpha * next_log_probs
    return rewards + gamma * (1.0 - dones) * soft_value


def polyak_update(target: Mlp, online: Mlp, tau: float) -> None:
    theta = target.params()
    theta *= 1.0 - tau
    theta += tau * online.params()


def sac_actor_grads(policy: GaussianPolicy, q1: Mlp, q2: Mlp, obs: np.ndarray,
                    noise: np.ndarray, alpha: float, buffers: SacBuffers | None = None):
    """Reparameterized gradient of mean(alpha*log pi - min Q) wrt policy params.

    ``noise`` is the frozen standard-normal draw, so the loss is a plain
    deterministic function of the parameters. Returns
    (param_grad, actor_loss, log_probs); param_grad is one vector in the
    ``policy.params()`` layout, ``buffers.actor_grads`` itself when
    ``buffers`` (with ``len(obs)`` rows) are given. Without them, new ones
    are allocated.
    """
    n = len(obs)
    if buffers is None:
        buffers = SacBuffers.allocate(policy, q1, n)
    mean, cache = policy.mean_net.forward_cached(obs, buffers.policy)
    std = policy.std()
    pre = mean + std * noise
    squashed = np.tanh(pre)
    log_probs = policy.log_prob_from_mean(mean, pre)
    actor_in = np.concatenate([obs, squashed], axis=1, out=buffers.inputs[2])
    q1_pi, q1_cache = q1.forward_cached(actor_in, buffers.actor[0])
    q2_pi, q2_cache = q2.forward_cached(actor_in, buffers.actor[1])
    use_q1 = q1_pi[:, 0] <= q2_pi[:, 0]
    ones = np.ones((n, 1))
    dq1_din = q1.input_grad(q1_cache, ones, buffers.scratch)
    dq2_din = q2.input_grad(q2_cache, ones, buffers.scratch)
    obs_dim = obs.shape[1]
    dq_da = np.where(use_q1[:, None], dq1_din[:, obs_dim:], dq2_din[:, obs_dim:])
    actor_loss = float(np.mean(alpha * log_probs - np.where(use_q1, q1_pi[:, 0], q2_pi[:, 0])))

    # d(log pi)/d(mu) = 2*tanh(u); d(a)/d(mu) = 1 - a^2; the log_std channel
    # additionally picks up u's dependence through sigma*zeta.
    dlogp_dmean = 2.0 * squashed
    da_dmean = 1.0 - squashed**2
    dloss_dmean = (alpha * dlogp_dmean - dq_da * da_dmean) / n
    sigma_noise = std * noise
    dlogp_dlogstd = -1.0 + 2.0 * squashed * sigma_noise
    da_dlogstd = da_dmean * sigma_noise
    dloss_dlogstd = (alpha * dlogp_dlogstd - dq_da * da_dlogstd).mean(axis=0)
    grads = buffers.actor_grads
    n_net = policy.mean_net.theta.size
    policy.mean_net.backward(cache, dloss_dmean, out=grads[:n_net], scratch=buffers.scratch)
    np.multiply(dloss_dlogstd, log_std_mask(policy), out=grads[n_net:])
    return grads, actor_loss, log_probs


def alpha_gradient(alpha: float, log_probs: np.ndarray, target_entropy: float) -> np.ndarray:
    """d/d(log_alpha) of -alpha*(mean log pi + target entropy), log pi detached."""
    return np.array([-alpha * float(np.mean(log_probs + target_entropy))])


def sac_update(nets: SacNets, buffer: ReplayBuffer, config: SacConfig,
               rng: np.random.Generator) -> dict:
    """One gradient update of critics, actor, and temperature, plus Polyak."""
    if len(buffer) < config.learning_starts:
        raise BufferTooSmall(
            f"buffer has {len(buffer)} transitions, learning starts at "
            f"{config.learning_starts}"
        )
    obs, pre_actions, rewards, next_obs, dones = buffer.sample(config.batch_size, rng)
    n = len(obs)
    buffers = nets.buffers.rows(n)
    actions = np.tanh(pre_actions)
    alpha = nets.alpha

    next_actions, _, next_log_probs = nets.policy.sample(next_obs, rng, buffers.policy)
    next_in = np.concatenate([next_obs, next_actions], axis=1, out=buffers.inputs[0])
    q1_next, q2_next = (q.forward_cached(next_in, cache)[0][:, 0]
                        for q, cache in zip(nets.targets.members(), buffers.targets))
    y = sac_target(rewards, dones, q1_next, q2_next, next_log_probs, alpha, config.gamma)

    # The batch passes run per member: as one (2, n, hidden) stack they were slower.
    critic_in = np.concatenate([obs, actions], axis=1, out=buffers.inputs[1])
    critics = nets.critics.members()
    critic_losses = []
    grads = buffers.critic_grads
    for k, q_net in enumerate(critics):
        q_out, cache = q_net.forward_cached(critic_in, buffers.critic)
        err = q_out[:, 0] - y
        critic_losses.append(float(np.mean(err**2)))
        q_net.backward(cache, 2.0 * err[:, None] / n, out=grads[k], scratch=buffers.scratch)
    nets.critics_opt.step(nets.critics.params(), grads)

    # Actor: fresh reparameterized sample through the updated critics.
    noise = rng.standard_normal((n, nets.policy.act_dim))
    actor_grads, actor_loss, log_probs = sac_actor_grads(
        nets.policy, *critics, obs, noise, alpha, buffers
    )
    nets.policy_opt.step(nets.policy.params(), actor_grads)

    # Temperature: minimize -alpha*(log pi + target entropy), log_probs detached.
    alpha_grad = alpha_gradient(nets.alpha, log_probs, nets.target_entropy)
    nets.alpha_opt.step(nets.log_alpha, alpha_grad)

    polyak_update(nets.targets, nets.critics, config.tau)
    return {
        "critic_loss": 0.5 * (critic_losses[0] + critic_losses[1]),
        "actor_loss": actor_loss,
        "alpha": nets.alpha,
        "batch_entropy": -float(np.mean(log_probs)),
    }


def sac_train(env: TradingEnv, config: SacConfig, rng: np.random.Generator) -> TrainResult:
    """Stochastic stepping into the replay ring, one update per step once warm."""
    nets = make_sac_nets(env.observation_dim, env.action_dim, config, rng)
    buffer = ReplayBuffer(config.buffer_size, env.observation_dim, env.action_dim)
    q1, q2 = nets.critics.members()
    q1_target, q2_target = nets.targets.members()
    result = TrainResult({"policy": nets.policy, "q1": q1, "q2": q2, "q1_target": q1_target,
                          "q2_target": q2_target, "log_alpha": nets.log_alpha})
    episode_return = 0.0
    last_episode_return = float("nan")
    obs = env.reset()
    stats: dict = {}
    for step in range(1, config.total_timesteps + 1):
        action, pre, _ = nets.policy.sample(obs[None, :], rng)
        outcome = env.step(action[0])
        buffer.add(obs, pre[0], outcome.reward, outcome.observation, outcome.done)
        episode_return += outcome.reward
        if outcome.done:
            last_episode_return = episode_return
            episode_return = 0.0
            obs = env.reset()
        else:
            obs = outcome.observation
        if len(buffer) >= config.learning_starts:
            stats = sac_update(nets, buffer, config, rng)
            check_finite(step, stats, result)
        if step % config.log_every == 0 or step == config.total_timesteps:
            result.history.append({"step": step, "episode_return": last_episode_return, **stats})
    return result
