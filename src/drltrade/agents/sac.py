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

from dataclasses import dataclass, field

import numpy as np

from ..env import TradingEnv
from ..errors import BufferTooSmall
from ..neural import Adam, GaussianPolicy, Mlp, TrainResult, check_finite, flatten_params
from .buffers import ReplayBuffer
from .ppo import log_std_mask


@dataclass(frozen=True)
class SacConfig:
    gamma: float = 0.99
    learning_rate: float = 0.01
    buffer_size: int = 1000
    batch_size: int = 1000  # clamped to the current buffer size
    alpha_init: float = 0.1
    target_entropy: float | None = None  # None: -action_dim
    learning_starts: int = 200
    tau: float = 0.005
    total_timesteps: int = 50_000
    hidden: tuple[int, ...] = (64, 64)
    log_every: int = 1000

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        if self.alpha_init <= 0.0:
            raise ValueError(f"alpha_init must be positive, got {self.alpha_init}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.log_every < 1:
            raise ValueError(f"log_every must be >= 1, got {self.log_every}")


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

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha[0]))

    def named_nets(self) -> dict:
        """The policy and the four critics, under their checkpoint names."""
        q1, q2 = self.critics.members()
        q1_target, q2_target = self.targets.members()
        return {"policy": self.policy, "q1": q1, "q2": q2,
                "q1_target": q1_target, "q2_target": q2_target}


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
                    noise: np.ndarray, alpha: float):
    """Reparameterized gradient of mean(alpha*log pi - min Q) wrt policy params.

    ``noise`` is the frozen standard-normal draw, so the loss is a plain
    deterministic function of the parameters. Returns
    (param_grad, actor_loss, log_probs); param_grad is one vector in the
    ``policy.params()`` layout.
    """
    n = len(obs)
    mean, cache = policy.mean_net.forward_cached(obs)
    std = policy.std()
    pre = mean + std * noise
    squashed = np.tanh(pre)
    log_probs = policy.log_prob_from_mean(mean, pre)
    actor_in = np.concatenate([obs, squashed], axis=1)
    q1_pi, q1_cache = q1.forward_cached(actor_in)
    q2_pi, q2_cache = q2.forward_cached(actor_in)
    use_q1 = q1_pi[:, 0] <= q2_pi[:, 0]
    ones = np.ones((n, 1))
    dq1_din = q1.input_grad(q1_cache, ones)
    dq2_din = q2.input_grad(q2_cache, ones)
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
    dloss_dlogstd = dloss_dlogstd * log_std_mask(policy)
    net_grad = policy.mean_net.backward(cache, dloss_dmean)
    return flatten_params([net_grad, dloss_dlogstd]), actor_loss, log_probs


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
    actions = np.tanh(pre_actions)
    alpha = nets.alpha

    next_actions, _, next_log_probs = nets.policy.sample(next_obs, rng)
    next_in = np.concatenate([next_obs, next_actions], axis=1)
    q1_next, q2_next = (q.forward(next_in)[:, 0] for q in nets.targets.members())
    y = sac_target(rewards, dones, q1_next, q2_next, next_log_probs, alpha, config.gamma)

    # The batch passes run per member: as one (2, n, hidden) stack they were slower.
    critic_in = np.concatenate([obs, actions], axis=1)
    critics = nets.critics.members()
    critic_losses = []
    grads = np.empty_like(nets.critics.params())
    for k, q_net in enumerate(critics):
        q_out, cache = q_net.forward_cached(critic_in)
        err = q_out[:, 0] - y
        critic_losses.append(float(np.mean(err**2)))
        grads[k] = q_net.backward(cache, 2.0 * err[:, None] / n)
    nets.critics_opt.step(nets.critics.params(), grads)

    # Actor: fresh reparameterized sample through the updated critics.
    noise = rng.standard_normal((n, nets.policy.act_dim))
    actor_grads, actor_loss, log_probs = sac_actor_grads(
        nets.policy, *critics, obs, noise, alpha
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


@dataclass
class SacResult(TrainResult):
    nets: SacNets
    history: list[dict] = field(default_factory=list)

    def named_nets(self) -> dict:
        return {**self.nets.named_nets(), "log_alpha": self.nets.log_alpha}


def sac_train(env: TradingEnv, config: SacConfig, rng: np.random.Generator) -> SacResult:
    """Stochastic stepping into the replay ring, one update per step once warm."""
    nets = make_sac_nets(env.observation_dim, env.action_dim, config, rng)
    buffer = ReplayBuffer(config.buffer_size, env.observation_dim, env.action_dim)
    result = SacResult(nets=nets)
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
