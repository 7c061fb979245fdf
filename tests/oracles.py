"""Brute-force reference implementations used as oracles by the tests.

Everything here is transcribed directly from the defining formulas with plain
Python loops, deliberately independent of the package's vectorized code. Keep
it slow and obvious; speed belongs in src/, correctness evidence belongs here.

Shared conventions mirrored from the indicator contracts: indices whose
look-back window is incomplete are NaN; zero mean deviation -> CCI 0; zero
average loss -> RSI 100, zero average gain -> RSI 0, both zero -> RSI 50;
DI sum zero -> DX 0.
"""

import csv
import io
import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from types import SimpleNamespace

import numpy as np

from drltrade.agents.buffers import compute_gae, normalize_advantages
from drltrade.agents.gail import D_CLAMP, discriminator_objective
from drltrade.agents.sac import alpha_gradient, polyak_update, sac_actor_grads, sac_target
from drltrade.agents.trpo import TrpoStats, _noop, _surrogate, gaussian_kl
from drltrade.errors import EmptyInput, InvariantViolation, MalformedRow, ShapeMismatch
from drltrade.neural import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    Adam,
    GaussianPolicy,
    Mlp,
    TrainResult,
    check_finite,
    flatten_params,
    softplus,
    unflatten_params,
)

NAN = float("nan")
KLINE_FIELDS = ("open_time", "open", "high", "low", "close", "volume")


def brute_sma(values, period):
    values = list(map(float, values))
    out = [NAN] * len(values)
    for i in range(period - 1, len(values)):
        window = values[i - period + 1 : i + 1]
        out[i] = sum(window) / period
    return out


def brute_ema(values, period):
    values = list(map(float, values))
    out = [NAN] * len(values)
    if len(values) < period:
        return out
    alpha = 2.0 / (period + 1.0)
    out[period - 1] = sum(values[:period]) / period
    for i in range(period, len(values)):
        out[i] = alpha * values[i] + (1.0 - alpha) * out[i - 1]
    return out


def loop_wilder_smooth(x, period, first_index):
    """Wilder smoothing as a loop over numpy scalars, seeded with np.mean.

    The same arithmetic, in the same order, as ``indicators.wilder_smooth``:
    the two must agree bit for bit.
    """
    n = len(x)
    start = first_index + period - 1
    out = np.full(n, np.nan)
    if start >= n:
        return out
    out[start] = np.mean(x[first_index:first_index + period])
    for i in range(start + 1, n):
        out[i] = (out[i - 1] * (period - 1) + x[i]) / period
    return out


def loop_ema(x, period):
    """EMA as a loop over numpy scalars, bit for bit like ``indicators.ema``."""
    n = len(x)
    out = np.full(n, np.nan)
    if n >= period:
        alpha = 2.0 / (period + 1.0)
        out[period - 1] = np.mean(x[:period])
        for i in range(period, n):
            out[i] = alpha * x[i] + (1.0 - alpha) * out[i - 1]
    return out


def brute_parse_klines(rows, interval_ms):
    """Per-bar kline parse: returns (bars, filled_indices), bars as 6-tuples.

    Row by row: take the six fields, convert them, validate every bar in input
    order, stable-sort by open_time, then walk the bars and insert a
    forward-filled bar (previous close as OHLC, volume 0) for each missing
    interval. Raises the error classes and bar messages ``parse_klines`` uses.
    """
    bars = []
    for row in rows:
        if isinstance(row, Sequence) and not isinstance(row, (str, bytes)):
            if len(row) < 6:
                raise MalformedRow(f"row has {len(row)} fields, need 6: {row!r}")
            fields = list(row[:6])
        else:
            raise MalformedRow(f"unsupported row type {type(row).__name__}")
        try:
            bars.append((int(fields[0]), *[float(v) for v in fields[1:6]]))
        except (TypeError, ValueError) as exc:
            raise MalformedRow(f"non-numeric field in row {row!r}") from exc
    if not bars:
        raise EmptyInput("no kline rows to parse")
    for t, o, h, l, c, v in bars:
        for name, value in zip(KLINE_FIELDS[1:5], (o, h, l, c)):
            if not math.isfinite(value) or value <= 0.0:
                raise InvariantViolation(f"{name}={value!r} must be a positive finite price")
        if not math.isfinite(v) or v < 0.0:
            raise InvariantViolation(f"volume={v!r} must be finite and >= 0")
        if l > min(o, c) or max(o, c) > h:
            raise InvariantViolation(
                f"bar at {t} breaks low <= open/close <= high: o={o} h={h} l={l} c={c}"
            )
    bars.sort(key=lambda bar: bar[0])
    out = [bars[0]]
    filled = []
    for bar in bars[1:]:
        prev_time = out[-1][0]
        gap = bar[0] - prev_time
        if gap <= 0:
            raise InvariantViolation(f"duplicate open_time {bar[0]}")
        if gap % interval_ms != 0:
            raise InvariantViolation(
                f"open_time {bar[0]} not aligned to interval {interval_ms} after {prev_time}"
            )
        while bar[0] - out[-1][0] > interval_ms:
            close = out[-1][4]
            filled.append(len(out))
            out.append((out[-1][0] + interval_ms, close, close, close, close, 0.0))
        out.append(bar)
    return out, tuple(filled)


def brute_typical_price(highs, lows, closes):
    return [(h + l + c) / 3.0 for h, l, c in zip(highs, lows, closes)]


def brute_cci(highs, lows, closes, period):
    tp = brute_typical_price(highs, lows, closes)
    out = [NAN] * len(tp)
    for i in range(period - 1, len(tp)):
        window = tp[i - period + 1 : i + 1]
        ma = sum(window) / period
        mean_dev = sum(abs(x - ma) for x in window) / period
        denom = 0.015 * mean_dev
        out[i] = (tp[i] - ma) / denom if denom > 0.0 else 0.0
    return out


def brute_rsi(closes, period):
    closes = list(map(float, closes))
    n = len(closes)
    out = [NAN] * n
    gains = [max(closes[i] - closes[i - 1], 0.0) for i in range(1, n)]
    losses = [max(closes[i - 1] - closes[i], 0.0) for i in range(1, n)]
    avg_gain = avg_loss = None
    for i in range(period, n):
        if i == period:
            avg_gain = sum(gains[:period]) / period
            avg_loss = sum(losses[:period]) / period
        else:
            # change at bar i sits at index i-1 of the diff arrays
            avg_gain = (avg_gain * (period - 1) + gains[i - 1]) / period
            avg_loss = (avg_loss * (period - 1) + losses[i - 1]) / period
        if avg_gain == 0.0 and avg_loss == 0.0:
            out[i] = 50.0
        elif avg_loss == 0.0:
            out[i] = 100.0
        else:
            rs = avg_gain / avg_loss
            out[i] = 100.0 - 100.0 / (1.0 + rs)
    return out


def brute_true_range(highs, lows, closes):
    out = [highs[0] - lows[0]]
    for i in range(1, len(highs)):
        out.append(
            max(
                highs[i] - lows[i],
                abs(highs[i] - closes[i - 1]),
                abs(lows[i] - closes[i - 1]),
            )
        )
    return out


def brute_atr(highs, lows, closes, period):
    tr = brute_true_range(highs, lows, closes)
    out = [NAN] * len(tr)
    if len(tr) < period:
        return out
    out[period - 1] = sum(tr[:period]) / period
    for i in range(period, len(tr)):
        out[i] = (out[i - 1] * (period - 1) + tr[i]) / period
    return out


def brute_dmi(highs, lows, closes, period):
    """Returns (di_plus, di_minus, dx); defined from index ``period`` on."""
    n = len(highs)
    plus_dm = [0.0] * n
    minus_dm = [0.0] * n
    for i in range(1, n):
        up = highs[i] - highs[i - 1]
        down = lows[i - 1] - lows[i]
        if up > down and up > 0.0:
            plus_dm[i] = up
        if down > up and down > 0.0:
            minus_dm[i] = down
    atr = brute_atr(highs, lows, closes, period)
    di_plus = [NAN] * n
    di_minus = [NAN] * n
    dx = [NAN] * n
    sm_plus = sm_minus = None
    for i in range(period, n):
        if i == period:
            # DM is undefined at bar 0, so the seed averages bars 1..period
            sm_plus = sum(plus_dm[1 : period + 1]) / period
            sm_minus = sum(minus_dm[1 : period + 1]) / period
        else:
            sm_plus = (sm_plus * (period - 1) + plus_dm[i]) / period
            sm_minus = (sm_minus * (period - 1) + minus_dm[i]) / period
        if atr[i] > 0.0:
            di_plus[i] = 100.0 * sm_plus / atr[i]
            di_minus[i] = 100.0 * sm_minus / atr[i]
        else:
            di_plus[i] = 0.0
            di_minus[i] = 0.0
        di_sum = di_plus[i] + di_minus[i]
        dx[i] = 100.0 * abs(di_plus[i] - di_minus[i]) / di_sum if di_sum > 0.0 else 0.0
    return di_plus, di_minus, dx


def brute_macd(closes, fast=12, slow=26):
    fast_ema = brute_ema(closes, fast)
    slow_ema = brute_ema(closes, slow)
    out = [NAN] * len(closes)
    for i in range(slow - 1, len(closes)):
        out[i] = fast_ema[i] - slow_ema[i]
    return out


def brute_bollinger(highs, lows, closes, n=20, m=2.0):
    tp = brute_typical_price(highs, lows, closes)
    mid = [NAN] * len(tp)
    upper = [NAN] * len(tp)
    lower = [NAN] * len(tp)
    for i in range(n - 1, len(tp)):
        window = tp[i - n + 1 : i + 1]
        ma = sum(window) / n
        sigma = math.sqrt(sum((x - ma) ** 2 for x in window) / n)
        mid[i] = ma
        upper[i] = ma + m * sigma
        lower[i] = ma - m * sigma
    return mid, upper, lower


def brute_gae(rewards, values, dones, last_value, gamma, lam):
    """Definitional GAE: A_t = sum_l (gamma*lam)^l delta_{t+l}, cut at dones."""
    n = len(rewards)
    next_values = list(values[1:]) + [last_value]
    deltas = [
        rewards[t] + gamma * next_values[t] * (1.0 - dones[t]) - values[t]
        for t in range(n)
    ]
    advantages = []
    for t in range(n):
        total, weight = 0.0, 1.0
        for l in range(t, n):
            total += weight * deltas[l]
            if dones[l]:
                break
            weight *= gamma * lam
        advantages.append(total)
    returns = [a + v for a, v in zip(advantages, values)]
    return advantages, returns


def fd_gradient(f, x, h=1e-6):
    """Central-difference gradient of scalar f at flat vector x."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        bumped = x.copy()
        bumped[i] = x[i] + h
        up = f(bumped)
        bumped[i] = x[i] - h
        down = f(bumped)
        grad[i] = (up - down) / (2.0 * h)
    return grad


def vector_rel_error(a, b):
    """Relative disagreement of two gradient vectors, scale-robust."""
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    denom = np.linalg.norm(a) + np.linalg.norm(b)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(a - b) / denom)


def reference_json(doc) -> str:
    """The stdlib rendering that every JSON artifact must match byte for byte."""
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def reference_csv(header, rows) -> str:
    """The ``csv.writer`` rendering that every CSV artifact must match byte for byte."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def feature_config_to_json(config) -> dict:
    """A checkpoint's ``feature_config`` block, written field by field."""
    return {
        "window": config.window,
        "columns": list(config.columns),
        "bollinger_n": config.bollinger_n,
        "bollinger_m": config.bollinger_m,
    }


def algo_config_json(algo_config) -> dict:
    """A checkpoint's ``train_config`` block; the hidden sizes become a list."""
    return {**asdict(algo_config), "hidden": list(algo_config.hidden)}


def resolved_config_json(config) -> dict:
    """``config_resolved.json`` written field by field, block by block."""
    return {
        "symbol": config.symbol,
        "interval": config.interval,
        "data": config.data,
        "split_fraction": config.split_fraction,
        "algo": config.algo,
        "seed": config.seed,
        "out": config.out,
        "features": feature_config_to_json(config.features),
        "env": asdict(config.env),
        **{name: algo_config_json(getattr(config, name)) for name in ("ppo", "sac", "gail")},
    }


# The forms below are the earlier, slower implementations of paths that were
# reworked for speed. The reworked code must match them bit for bit.


class AllocatingAdam:
    """``neural.Adam`` as it was before it updated its state in place: every
    step builds new ``m`` and ``v`` and its temporaries."""

    def __init__(self, params: np.ndarray, lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grads
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grads**2
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        params -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def allocating_forward_cached(net, x):
    """``Mlp.forward_cached`` before it could write into a given cache:
    (output, [x, a1, ..., aL]), every activation a new array."""
    x = net._check_input(x)
    activations = [x]
    a = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w + b
        a = z if i == last else np.tanh(z)
        activations.append(a)
    return a, activations


def allocating_backward(net, cache, grad_out):
    """``Mlp.backward`` before it wrote into one gradient vector: per-layer
    gradients, concatenated at the end."""
    activations = cache
    g = net._check_grad_out(activations, grad_out)
    grads = []
    for i in range(len(net.weights) - 1, -1, -1):
        grads.append(g.sum(axis=-2))  # db
        grads.append(activations[i].swapaxes(-1, -2) @ g)  # dW
        if i > 0:
            g = (g @ net.weights[i].swapaxes(-1, -2)) * (1.0 - activations[i] ** 2)
    grads.reverse()
    lead = net.theta.shape[:-1]
    return np.concatenate([grad.reshape(lead + (-1,)) for grad in grads], axis=-1)


def allocating_input_grad(net, cache, grad_out):
    """``Mlp.input_grad`` before it used scratch arrays."""
    activations = cache
    g = net._check_grad_out(activations, grad_out)
    for i in range(len(net.weights) - 1, -1, -1):
        g = g @ net.weights[i].swapaxes(-1, -2)
        if i > 0:
            g = g * (1.0 - activations[i] ** 2)  # through tanh
    return g


def allocating_jvp(net, cache, tangent):
    """``Mlp.jvp`` before it could write into caller arrays: every layer's
    tangent and temporary a new array."""
    activations = cache
    tangents = unflatten_params(tangent, net._shapes())
    last = len(net.weights) - 1
    for i, w in enumerate(net.weights):
        a = activations[i]
        dw = tangents[2 * i]
        db = tangents[2 * i + 1]
        # The input does not depend on the parameters: layer 0 has no da @ w.
        dz = a @ dw + db if i == 0 else (da @ w + a @ dw) + db
        da = dz if i == last else (1.0 - activations[i + 1] ** 2) * dz
    return da


def recomputing_jvp(net, x, tangent):
    """Forward-mode derivative that re-runs the forward pass from ``x``.

    Starts from a zero input tangent and sums ``da @ w + a @ dw + db`` at
    every layer, layer 0 included.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    tangents, offset = [], 0
    for w, b in zip(net.weights, net.biases):
        for shape in (w.shape, b.shape):
            size = int(np.prod(shape))
            tangents.append(tangent[offset:offset + size].reshape(shape))
            offset += size
    a = x
    da = np.zeros_like(x)
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        dw = tangents[2 * i]
        db = tangents[2 * i + 1]
        z = a @ w + b
        dz = da @ w + a @ dw + db
        if i == last:
            a, da = z, dz
        else:
            a = np.tanh(z)
            da = (1.0 - a**2) * dz
    return da


def clip_log_prob_from_mean(policy, mean, pre):
    """Squashed-Gaussian log density with ``log_std`` clamped by ``np.clip``."""
    log_std = np.clip(policy.log_std, LOG_STD_MIN, LOG_STD_MAX)
    std = np.exp(log_std)
    z = (pre - mean) / std
    gaussian = -0.5 * np.log(2.0 * np.pi) - log_std - 0.5 * z**2
    log_det = 2.0 * (np.log(2.0) - pre - np.logaddexp(0.0, -2.0 * pre))
    return (gaussian - log_det).sum(axis=1)


def clip_sample(policy, obs, rng):
    """(action, pre, log_prob) with a broadcast std and ``np.clip`` clamping."""
    mean = policy.mean_net.forward(obs)
    std = np.broadcast_to(np.exp(np.clip(policy.log_std, LOG_STD_MIN, LOG_STD_MAX)), mean.shape)
    noise = rng.standard_normal(mean.shape)
    pre = mean + std * noise
    return np.tanh(pre), pre, clip_log_prob_from_mean(policy, mean, pre)


def clip_action(action):
    """The env's action clamp: first element, through ``np.clip`` into [-1, 1]."""
    return float(np.clip(np.asarray(action).reshape(-1)[0], -1.0, 1.0))


def per_value_expert_csv(dataset, path):
    """The expert CSV with every cell formatted by ``repr(float(v))``."""
    obs_dim = dataset.obs.shape[1]
    act_dim = dataset.actions.shape[1]
    header = [f"obs_{i}" for i in range(obs_dim)] + [f"act_{i}" for i in range(act_dim)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for o, a in zip(dataset.obs, dataset.actions):
            writer.writerow([repr(float(v)) for v in o] + [repr(float(v)) for v in a])


def rerun_expert_dataset(policy, env, n_episodes, traj_limitation):
    """(obs, actions) of ``n_episodes`` expert rollouts, each one run afresh,
    concatenated then truncated to ``traj_limitation`` rows."""
    obs_rows, act_rows = [], []
    for _ in range(n_episodes):
        obs = env.reset()
        done = False
        while not done:
            pre = policy.mean_net.forward(obs[None, :])
            obs_rows.append(obs)
            act_rows.append(pre[0])
            result = env.step(np.tanh(pre[0]))
            obs = result.observation
            done = result.done
    return np.array(obs_rows)[:traj_limitation], np.array(act_rows)[:traj_limitation]


def per_step_rollout(env, policy, value_net, n_steps, rng):
    """The rollout buffer's fields, keyed by name, from one ``policy.sample``
    and one ``value_net.forward`` per step, and one more for the bootstrap
    value unless the last step ended an episode."""
    obs_rows = np.empty((n_steps, env.observation_dim))
    pre_rows = np.empty((n_steps, policy.act_dim))
    logp_rows = np.empty(n_steps)
    reward_rows = np.empty(n_steps)
    done_rows = np.zeros(n_steps)
    value_rows = np.empty(n_steps)
    obs = env.reset() if env.done else env.observe()
    for i in range(n_steps):
        action, pre, logp = policy.sample(obs[None, :], rng)
        result = env.step(action[0])
        obs_rows[i] = obs
        pre_rows[i] = pre[0]
        logp_rows[i] = logp[0]
        value_rows[i] = value_net.forward(obs[None, :])[0, 0]
        reward_rows[i] = result.reward
        done_rows[i] = float(result.done)
        obs = env.reset() if result.done else result.observation
    last_value = 0.0 if done_rows[-1] else float(value_net.forward(obs[None, :])[0, 0])
    return {"obs": obs_rows, "pre_actions": pre_rows, "log_probs": logp_rows,
            "rewards": reward_rows, "dones": done_rows, "values": value_rows,
            "last_value": last_value}


def twin_loop_nets(nets, lr):
    """SAC's networks as six critic objects: copies of the stacked critics
    and targets of ``nets``, with one fresh ``AllocatingAdam`` per critic.
    The policy and the temperature are shared with ``nets``; their
    optimizers are fresh ``AllocatingAdam``s too, so ``nets`` must not have
    been updated yet."""
    q1, q2 = (q.copy() for q in nets.critics.members())
    q1_target, q2_target = (q.copy() for q in nets.targets.members())
    return SimpleNamespace(
        policy=nets.policy, q1=q1, q2=q2, q1_target=q1_target, q2_target=q2_target,
        log_alpha=nets.log_alpha, policy_opt=AllocatingAdam(nets.policy.params(), lr=lr),
        q1_opt=AllocatingAdam(q1.params(), lr=lr), q2_opt=AllocatingAdam(q2.params(), lr=lr),
        alpha_opt=AllocatingAdam(nets.log_alpha, lr=lr), target_entropy=nets.target_entropy,
    )


def twin_loop_sac_update(nets, buffer, config, rng):
    """One SAC update on ``twin_loop_nets``: an Adam step per critic in a loop
    and one Polyak call per target. The critics run through the allocating
    forms of the forward and backward passes."""
    obs, pre_actions, rewards, next_obs, dones = buffer.sample(config.batch_size, rng)
    n = len(obs)
    actions = np.tanh(pre_actions)
    alpha = float(np.exp(nets.log_alpha[0]))

    next_actions, _, next_log_probs = nets.policy.sample(next_obs, rng)
    next_in = np.concatenate([next_obs, next_actions], axis=1)
    q1_next = allocating_forward_cached(nets.q1_target, next_in)[0][:, 0]
    q2_next = allocating_forward_cached(nets.q2_target, next_in)[0][:, 0]
    y = sac_target(rewards, dones, q1_next, q2_next, next_log_probs, alpha, config.gamma)

    critic_in = np.concatenate([obs, actions], axis=1)
    critic_losses = []
    for q_net, q_opt in ((nets.q1, nets.q1_opt), (nets.q2, nets.q2_opt)):
        q_out, cache = allocating_forward_cached(q_net, critic_in)
        err = q_out[:, 0] - y
        critic_losses.append(float(np.mean(err**2)))
        grads = allocating_backward(q_net, cache, 2.0 * err[:, None] / n)
        q_opt.step(q_net.params(), grads)

    noise = rng.standard_normal((n, nets.policy.act_dim))
    actor_grads, actor_loss, log_probs = sac_actor_grads(
        nets.policy, nets.q1, nets.q2, obs, noise, alpha
    )
    nets.policy_opt.step(nets.policy.params(), actor_grads)

    alpha_grad = alpha_gradient(float(np.exp(nets.log_alpha[0])), log_probs,
                                nets.target_entropy)
    nets.alpha_opt.step(nets.log_alpha, alpha_grad)

    polyak_update(nets.q1_target, nets.q1, config.tau)
    polyak_update(nets.q2_target, nets.q2, config.tau)
    return {
        "critic_loss": 0.5 * (critic_losses[0] + critic_losses[1]),
        "actor_loss": actor_loss,
        "alpha": float(np.exp(nets.log_alpha[0])),
        "batch_entropy": -float(np.mean(log_probs)),
    }


def two_net_ppo_surrogate(policy, value_net, obs, pre_actions, old_log_probs, advantages,
                          returns, config):
    """``ppo.ppo_surrogate`` before the policy and the value net shared one
    parameter block: a forward and a backward pass per net. Returns
    (stats, policy_grads, value_grads)."""
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
    policy_grads = allocating_policy_param_grads(
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


def two_net_ppo_epoch(policy, value_net, policy_opt, value_opt, obs, pre_actions,
                      old_log_probs, advantages, returns, config):
    """One PPO epoch as it ran on two networks: ``two_net_ppo_surrogate``,
    then an Adam step per net. Returns what the surrogate returned."""
    stats, policy_grads, value_grads = two_net_ppo_surrogate(
        policy, value_net, obs, pre_actions, old_log_probs, advantages, returns, config)
    policy_opt.step(policy.params(), policy_grads)
    value_opt.step(value_net.params(), value_grads)
    return stats, policy_grads, value_grads


@dataclass
class LooseNetRolloutBuffer:
    """``buffers.RolloutBuffer`` before the rollout read an ``ActorCritic``:
    last_obs/last_done describe the state after the final transition, for
    bootstrapping."""

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


def loose_net_collect_rollout(env, policy, value_net, n_steps, rng):
    """``buffers.collect_rollout`` on two loose nets, stacked by a copy per
    rollout; both need the same ``sizes``."""
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
    return LooseNetRolloutBuffer(
        obs=obs_rows,
        pre_actions=pre_rows,
        log_probs=policy.log_prob_from_mean(means, pre_rows),
        rewards=reward_rows,
        dones=done_rows,
        values=outputs[:, 1],
        last_obs=obs,
        last_done=bool(done_rows[-1]),
    )


def loose_net_rollout_advantages(buffer, rewards, value_net, gamma, lam):
    """``buffers.rollout_advantages`` with the value net that scores the
    bootstrap state passed in."""
    last_value = (
        0.0 if buffer.last_done else float(value_net.forward(buffer.last_obs[None, :])[0, 0])
    )
    advantages, returns = compute_gae(rewards, buffer.values, buffer.dones, last_value,
                                      gamma, lam)
    return normalize_advantages(advantages), returns


def allocating_policy_param_grads(policy, cache, mean, pre_actions, dloss_dlogp,
                                  dloss_dlogstd_extra):
    """``ppo.policy_param_grads`` before it wrote into a given vector: the mean
    net's gradient and log_std's, concatenated."""
    std = policy.std()
    z = (pre_actions - mean) / std
    grad_mean = dloss_dlogp[:, None] * z / std
    net_grad = allocating_backward(policy.mean_net, cache, grad_mean)
    grad_log_std = (dloss_dlogp[:, None] * (z**2 - 1.0)).sum(axis=0)
    grad_log_std = (grad_log_std + dloss_dlogstd_extra) * policy.log_std_mask()
    return flatten_params([net_grad, grad_log_std])


def allocating_conjugate_gradient(matvec, b, iters, tol=1e-10):
    """``trpo.conjugate_gradient`` before it updated its iterates in place."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    for _ in range(iters):
        if rs < tol:
            break
        ap = matvec(p)
        alpha = rs / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


def allocating_fisher_vector_product(policy, obs, cache, vec, damping):
    """``trpo.fisher_vector_product`` before it wrote into caller arrays."""
    n_net = policy.mean_net.theta.size
    n = len(obs)
    var = policy.std() ** 2
    dmean = allocating_jvp(policy.mean_net, cache, vec[:n_net])
    net_product = allocating_backward(policy.mean_net, cache, dmean / var / n)
    logstd_product = 2.0 * vec[n_net:] * policy.log_std_mask()
    return np.concatenate([net_product, logstd_product]) + damping * vec


def allocating_trpo_step(policy, obs, pre_actions, advantages, old_log_probs, max_kl=0.01,
                         cg_iters=10, backtracks=10, damping=0.1, ent_coef=0.0):
    """``trpo.trpo_step`` before it wrote into caller arrays: every pass of
    the mean net a new array, through the allocating forms above."""
    n = len(obs)
    theta_old = policy.params().copy()
    mean_old, cache = allocating_forward_cached(policy.mean_net, obs)
    if np.shape(pre_actions) != mean_old.shape:
        raise ShapeMismatch(f"pre_actions shape {np.shape(pre_actions)} "
                            f"!= mean shape {mean_old.shape}")
    std_old = np.broadcast_to(policy.std(), mean_old.shape)
    ratio_now = np.exp(policy.log_prob_from_mean(mean_old, pre_actions) - old_log_probs)
    surr_old = _surrogate(policy, ratio_now, advantages, ent_coef)
    dsurr_dlogp = ratio_now * advantages / n
    ent_grad = ent_coef * np.ones(policy.act_dim)
    g = allocating_policy_param_grads(policy, cache, mean_old, pre_actions, dsurr_dlogp,
                                      ent_grad)
    if not np.all(np.isfinite(g)):
        return _noop(surr_old)

    def matvec(v):
        return allocating_fisher_vector_product(policy, obs, cache, v, damping)

    direction = allocating_conjugate_gradient(matvec, g, cg_iters)
    quad = float(direction @ matvec(direction))
    if not np.all(np.isfinite(direction)) or quad <= 0.0 or not np.isfinite(quad):
        return _noop(surr_old)
    beta = np.sqrt(2.0 * max_kl / quad)
    full_step = beta * direction

    for k in range(backtracks):
        frac = 0.5**k
        policy.set_params(theta_old + frac * full_step)
        mean_new = allocating_forward_cached(policy.mean_net, obs)[0]
        std_new = np.broadcast_to(policy.std(), mean_new.shape)
        kl = gaussian_kl(mean_old, std_old, mean_new, std_new)
        ratio_new = np.exp(policy.log_prob_from_mean(mean_new, pre_actions) - old_log_probs)
        surr_new = _surrogate(policy, ratio_new, advantages, ent_coef)
        improvement = surr_new - surr_old
        if np.isfinite(kl) and np.isfinite(surr_new) and improvement > 0.0 and kl <= max_kl:
            return TrpoStats(accepted=True, step_fraction=frac, kl=kl,
                             improvement=improvement, surrogate=surr_new)
    policy.set_params(theta_old)
    return _noop(surr_old)


def allocating_discriminator_loss_and_grads(disc, expert_obs, expert_actions, gen_obs,
                                            gen_actions):
    """``gail.discriminator_loss_and_grads`` before it wrote into caller
    arrays: two allocating passes, two new gradients and their sum."""
    gen_in = np.concatenate([gen_obs, gen_actions], axis=1)
    exp_in = np.concatenate([expert_obs, expert_actions], axis=1)
    gen_out, gen_cache = allocating_forward_cached(disc, gen_in)
    exp_out, exp_cache = allocating_forward_cached(disc, exp_in)
    gen_logits, exp_logits = gen_out[:, 0], exp_out[:, 0]
    gen_d = 1.0 / (1.0 + np.exp(-gen_logits))
    exp_d = 1.0 / (1.0 + np.exp(-exp_logits))
    loss = float(np.mean(softplus(-gen_logits)) + np.mean(softplus(exp_logits)))

    dgen = (gen_d - 1.0)[:, None] / len(gen_logits)
    dexp = exp_d[:, None] / len(exp_logits)
    gen_grad = allocating_backward(disc, gen_cache, dgen)
    exp_grad = allocating_backward(disc, exp_cache, dexp)
    stats = {
        "disc_loss": loss,
        "disc_objective": discriminator_objective(gen_d, exp_d),
        "d_generator": float(gen_d.mean()),
        "d_expert": float(exp_d.mean()),
    }
    return stats, gen_grad + exp_grad


def allocating_gail_discriminator_update(disc, disc_opt, expert_obs, expert_actions, gen_obs,
                                         gen_actions):
    """``gail.gail_discriminator_update`` on the allocating loss above."""
    stats, grad = allocating_discriminator_loss_and_grads(
        disc, expert_obs, expert_actions, gen_obs, gen_actions
    )
    disc_opt.step(disc.params(), grad)
    return stats


def allocating_gail_reward(disc, obs, actions):
    """``gail.gail_reward`` with the discriminator's pass allocating."""
    logits = allocating_forward_cached(disc, np.concatenate([obs, actions], axis=1))[0][:, 0]
    d = np.clip(1.0 / (1.0 + np.exp(-logits)), D_CLAMP, 1.0 - D_CLAMP)
    return -np.log(d)


def loose_net_gail_train(env, expert, config, rng):
    """``gail.gail_train`` on a loose policy and value net, rolled out by
    ``loose_net_collect_rollout``, with every update through the allocating
    forms above and ``AllocatingAdam``s."""
    if expert.obs.shape[1] != env.observation_dim:
        raise ValueError(
            f"expert obs dim {expert.obs.shape[1]} != env obs dim {env.observation_dim}"
        )
    policy = GaussianPolicy(env.observation_dim, env.action_dim, config.hidden, rng)
    value_net = Mlp((env.observation_dim,) + config.hidden + (1,), rng)
    disc = Mlp((env.observation_dim + env.action_dim,) + config.hidden + (1,), rng)
    disc_opt = AllocatingAdam(disc.params(), lr=config.disc_learning_rate)
    value_opt = AllocatingAdam(value_net.params(), lr=config.value_lr)
    result = TrainResult({"policy": policy, "value_net": value_net, "discriminator": disc})
    n_iters = config.total_timesteps // config.horizon
    env.reset()
    for it in range(n_iters):
        buffer = loose_net_collect_rollout(env, policy, value_net, config.horizon, rng)
        expert_idx = rng.choice(
            len(expert), size=min(config.horizon, len(expert)), replace=False
        )
        disc_stats = allocating_gail_discriminator_update(
            disc,
            disc_opt,
            expert.obs[expert_idx],
            expert.actions[expert_idx],
            buffer.obs,
            buffer.pre_actions,
        )
        rewards = allocating_gail_reward(disc, buffer.obs, buffer.pre_actions)
        advantages, returns = loose_net_rollout_advantages(
            buffer, rewards, value_net, config.gamma, config.gae_lambda
        )
        trpo_stats = allocating_trpo_step(
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
            out, cache = allocating_forward_cached(value_net, buffer.obs)
            err = out[:, 0] - returns
            grads = allocating_backward(value_net, cache, 2.0 * err[:, None] / len(returns))
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


def two_net_ppo_train(env, config, rng):
    """``ppo.ppo_train`` on two networks with an Adam each, every epoch one
    ``two_net_ppo_epoch``, rolled out by ``loose_net_collect_rollout``."""
    policy = GaussianPolicy(env.observation_dim, env.action_dim, config.hidden, rng)
    value_net = Mlp((env.observation_dim,) + config.hidden + (1,), rng)
    policy_opt = Adam(policy.params(), lr=config.learning_rate)
    value_opt = Adam(value_net.params(), lr=config.learning_rate)
    result = TrainResult({"policy": policy, "value_net": value_net})
    episode_return = 0.0
    last_episode_return = float("nan")
    env.reset()
    for update in range(config.total_timesteps // config.n_steps):
        buffer = loose_net_collect_rollout(env, policy, value_net, config.n_steps, rng)
        for r, d in zip(buffer.rewards, buffer.dones):
            episode_return += r
            if d:
                last_episode_return = episode_return
                episode_return = 0.0
        advantages, returns = loose_net_rollout_advantages(
            buffer, buffer.rewards, value_net, config.gamma, config.gae_lambda
        )
        stats = {}
        for _ in range(config.n_epochs):
            stats, _, _ = two_net_ppo_epoch(
                policy, value_net, policy_opt, value_opt, buffer.obs, buffer.pre_actions,
                buffer.log_probs, advantages, returns, config)
        step = (update + 1) * config.n_steps
        stats = {"mean_reward": float(buffer.rewards.mean()), **stats}
        check_finite(step, stats, result)
        result.history.append({"step": step, "episode_return": last_episode_return, **stats})
    return result


@dataclass
class AnnotatedRow:
    """One bar of the backtest's annotated series, as the rollout kept it
    beside the env's trade records."""

    timestamp: int  # bar open time, ms since epoch
    price: float
    gross_value: float
    marker: str  # buy | sell | hold
    executed_units: float


def annotated_row_rollout(policy, env):
    """The backtest's annotated rows, each rebuilt from the env's state after
    its trade: a row per step, then one for the forced liquidation."""

    def marker(units):
        return "buy" if units > 0.0 else "sell" if units < 0.0 else "hold"

    obs = env.reset()
    closes = env.series.closes
    open_times = env.series.open_times
    rows = []
    done = False
    while not done:
        t = env.t
        action = policy.mean_action(obs[None, :])[0]
        result = env.step(action)
        price = float(closes[t])
        rows.append(AnnotatedRow(
            timestamp=int(open_times[t]),
            price=price,
            gross_value=env.cash + env.asset_units * price,
            marker=marker(result.info.executed_units),
            executed_units=float(result.info.executed_units),
        ))
        obs = result.observation
        done = result.done
    final_t = env.t
    info = env.liquidate()
    rows.append(AnnotatedRow(
        timestamp=int(open_times[final_t]),
        price=info.price,
        gross_value=env.cash,
        marker=marker(info.executed_units),
        executed_units=float(info.executed_units),
    ))
    return rows


def annotated_rows_csv(rows) -> str:
    """The annotated CSV of ``annotated_row_rollout``'s rows."""
    return reference_csv(
        ["timestamp", "price", "gross_value", "marker", "executed_units"],
        ((r.timestamp, r.price, r.gross_value, r.marker, r.executed_units) for r in rows),
    )
