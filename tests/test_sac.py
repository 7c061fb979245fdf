"""Soft actor-critic: target fixtures, reparameterized gradients, training."""

import numpy as np
import pytest

from conftest import make_random_series
from drltrade.agents import (
    ReplayBuffer,
    SacConfig,
    alpha_gradient,
    make_sac_nets,
    polyak_update,
    sac_actor_grads,
    sac_target,
    sac_train,
    sac_update,
    write_training_log,
)
from drltrade.agents import sac
from drltrade.env import EnvConfig, TradingEnv
from drltrade.errors import BufferTooSmall, DivergenceDetected
from drltrade.features import FeatureConfig, build_feature_matrix, fit_normalizer, normalize
from drltrade.neural import GaussianPolicy, Mlp
from oracles import fd_gradient, twin_loop_nets, twin_loop_sac_update, vector_rel_error


def test_target_fixture_values():
    y = sac_target(
        rewards=np.array([0.0]),
        dones=np.array([0.0]),
        q1_next=np.array([2.0]),
        q2_next=np.array([3.0]),
        next_log_probs=np.array([-1.0]),
        alpha=0.1,
        gamma=0.99,
    )
    # 0.99 * (min(2, 3) - 0.1 * (-1)) = 0.99 * 2.1
    assert y[0] == pytest.approx(2.079, abs=1e-12)


def test_target_done_truncates_bootstrap():
    y = sac_target(
        rewards=np.array([0.7, 0.7]),
        dones=np.array([1.0, 0.0]),
        q1_next=np.array([5.0, 5.0]),
        q2_next=np.array([1.0, 1.0]),
        next_log_probs=np.array([0.0, 0.0]),
        alpha=0.2,
        gamma=0.9,
    )
    assert y[0] == pytest.approx(0.7)  # terminal: reward only
    assert y[1] == pytest.approx(0.7 + 0.9 * 1.0)  # min picks q2


def test_polyak_is_exact_convex_mix(rng):
    online = Mlp((3, 4, 1), rng)
    target = Mlp((3, 4, 1), rng)
    want = 0.25 * online.params() + 0.75 * target.params()
    theta = target.params()
    polyak_update(target, online, tau=0.25)
    assert np.allclose(target.params(), want, atol=1e-15)
    assert target.params() is theta  # updated in place
    assert np.shares_memory(target.weights[0], theta)
    polyak_update(target, online, tau=1.0)
    assert np.array_equal(target.params(), online.params())


def test_polyak_on_a_stack_equals_polyak_per_member(rng):
    online = [Mlp((3, 4, 1), rng) for _ in range(2)]
    target = [Mlp((3, 4, 1), rng) for _ in range(2)]
    online_stack, target_stack = Mlp.stack(online), Mlp.stack(target)
    polyak_update(target_stack, online_stack, tau=0.005)
    for k in range(2):
        polyak_update(target[k], online[k], tau=0.005)
        assert target_stack.params()[k].tobytes() == target[k].params().tobytes()


def test_actor_gradient_matches_finite_differences(rng):
    obs_dim, act_dim, n = 3, 2, 10
    policy = GaussianPolicy(obs_dim, act_dim, (5,), rng)
    policy.log_std[:] = rng.uniform(-0.5, 0.5, size=act_dim)
    q_sizes = (obs_dim + act_dim, 6, 1)
    q1, q2 = Mlp(q_sizes, rng), Mlp(q_sizes, rng)
    obs = rng.normal(size=(n, obs_dim))
    noise = rng.standard_normal((n, act_dim))
    alpha = 0.3

    grads, actor_loss, log_probs = sac_actor_grads(policy, q1, q2, obs, noise, alpha)
    assert log_probs.shape == (n,)

    def loss_of(flat):
        probe = policy.copy()
        probe.set_params(flat)
        mean = probe.mean_net.forward(obs)
        pre = mean + probe.std() * noise
        squashed = np.tanh(pre)
        lp = probe.log_prob_from_mean(mean, pre)
        q_in = np.concatenate([obs, squashed], axis=1)
        q_min = np.minimum(q1.forward(q_in)[:, 0], q2.forward(q_in)[:, 0])
        return float(np.mean(alpha * lp - q_min))

    start = policy.params()
    assert loss_of(start) == pytest.approx(actor_loss, abs=1e-12)
    numeric = fd_gradient(loss_of, start)
    assert vector_rel_error(grads, numeric) < 1e-4


def test_actor_gradient_respects_log_std_clamp(rng):
    policy = GaussianPolicy(2, 1, (4,), rng)
    policy.log_std[:] = -20.0  # pinned at the clamp: gradient must not leak
    q1, q2 = Mlp((3, 4, 1), rng), Mlp((3, 4, 1), rng)
    obs = rng.normal(size=(6, 2))
    noise = rng.standard_normal((6, 1))
    grads, _, _ = sac_actor_grads(policy, q1, q2, obs, noise, 0.1)
    assert np.array_equal(grads[-1:], np.zeros(1))  # the log_std entry


def test_alpha_gradient_closed_form():
    grad = alpha_gradient(0.5, np.array([-1.0, -3.0]), target_entropy=-1.0)
    # -(alpha) * mean([-2, -4]) = 1.5
    assert grad.shape == (1,)
    assert grad[0] == pytest.approx(1.5, abs=1e-12)
    assert alpha_gradient(0.7, np.array([-2.0]), 2.0)[0] == pytest.approx(0.0, abs=1e-12)


def test_alpha_gradient_matches_finite_differences_of_the_temperature_loss():
    """d/d(log_alpha) of -exp(log_alpha) * mean(log_probs + target_entropy);
    the log-probs' median (-0.5) is not their mean (-0.08)."""
    log_probs = np.array([-3.0, -0.5, 0.2, 4.0, -1.1])
    assert np.median(log_probs) != np.mean(log_probs)
    target_entropy = -1.0

    def loss(log_alpha):
        return float(-np.exp(log_alpha[0]) * np.mean(log_probs + target_entropy))

    for log_alpha in (np.log(0.1), 0.0, 0.7):
        start = np.array([log_alpha])
        grad = alpha_gradient(float(np.exp(log_alpha)), log_probs, target_entropy)
        assert grad.shape == (1,)
        assert grad[0] == pytest.approx(fd_gradient(loss, start)[0], rel=1e-7)


def make_env(rng, episode=range(4, 20)):
    series = make_random_series(rng, 60)
    config = FeatureConfig(window=4, columns=("close", "return"))
    matrix = build_feature_matrix(series, config)
    norm = normalize(matrix, fit_normalizer(matrix, range(matrix.valid_from, 60)))
    return TradingEnv(series, norm, EnvConfig(window=4), episode)


def small_config(**overrides):
    base = dict(
        buffer_size=64,
        batch_size=16,
        learning_starts=8,
        total_timesteps=24,
        hidden=(8,),
        log_every=8,
    )
    base.update(overrides)
    return SacConfig(**base)


def test_update_requires_warm_buffer(rng):
    config = small_config()
    nets = make_sac_nets(4, 1, config, rng)
    buffer = ReplayBuffer(config.buffer_size, 4, 1)
    for _ in range(config.learning_starts - 1):
        buffer.add(np.zeros(4), np.zeros(1), 0.0, np.zeros(4), False)
    with pytest.raises(BufferTooSmall):
        sac_update(nets, buffer, config, rng)


def random_transition(data, obs_dim, act_dim):
    return (data.normal(size=obs_dim), data.normal(size=act_dim), data.normal(),
            data.normal(size=obs_dim), data.random() < 0.05)


def assert_updates_match_the_twin_loop(config, obs_dim, act_dim, filled, updates):
    """Runs ``updates`` stacked and twin-loop updates on one buffer that
    holds ``filled`` random transitions at first and gains one after each
    update; compares stats, parameters, Adam moments and counts by bytes."""
    data = np.random.default_rng(3)
    buffer = ReplayBuffer(config.buffer_size, obs_dim, act_dim)
    for _ in range(filled):
        buffer.add(*random_transition(data, obs_dim, act_dim))
    nets = make_sac_nets(obs_dim, act_dim, config, np.random.default_rng(4))
    twin = twin_loop_nets(make_sac_nets(obs_dim, act_dim, config, np.random.default_rng(4)),
                          config.learning_rate)
    rng, twin_rng = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(updates):
        stats = sac_update(nets, buffer, config, rng)
        want = twin_loop_sac_update(twin, buffer, config, twin_rng)
        assert list(stats) == list(want)
        assert np.array(list(stats.values())).tobytes() == np.array(list(want.values())).tobytes()
        if filled < config.buffer_size:
            buffer.add(*random_transition(data, obs_dim, act_dim))
    critics = ((twin.q1, twin.q1_target, twin.q1_opt), (twin.q2, twin.q2_target, twin.q2_opt))
    for k, (q, q_target, q_opt) in enumerate(critics):
        assert nets.critics.params()[k].tobytes() == q.params().tobytes()
        assert nets.targets.params()[k].tobytes() == q_target.params().tobytes()
        assert nets.critics_opt.m[k].tobytes() == q_opt.m.tobytes()
        assert nets.critics_opt.v[k].tobytes() == q_opt.v.tobytes()
        assert nets.critics_opt.t == q_opt.t == updates
    for name in ("policy_opt", "alpha_opt"):
        opt, twin_opt = getattr(nets, name), getattr(twin, name)
        assert (opt.m.tobytes(), opt.v.tobytes(), opt.t) == (
            twin_opt.m.tobytes(), twin_opt.v.tobytes(), twin_opt.t)
    assert nets.policy.params().tobytes() == twin.policy.params().tobytes()
    assert nets.log_alpha.tobytes() == twin.log_alpha.tobytes()


def test_stacked_update_is_bit_identical_to_the_twin_loop_update():
    """Parameters, Adam moments and counts, and stats of 25 updates, by bytes."""
    config = SacConfig(buffer_size=300, batch_size=256, learning_starts=256)
    assert_updates_match_the_twin_loop(config, 26, 1, filled=config.buffer_size, updates=25)


def test_stacked_update_matches_the_twin_loop_update_while_the_batch_ramps():
    """As above, from learning_starts = 200 rows up to the batch of 256 and
    past it: the update runs on row views of its buffers first."""
    config = SacConfig(buffer_size=300, batch_size=256, learning_starts=200)
    assert_updates_match_the_twin_loop(config, 26, 1, filled=200, updates=60)


def test_full_batch_updates_write_into_the_same_arrays(monkeypatch):
    """Two full-batch updates put each pass's activations into the same
    arrays; the passes share arrays only as SacBuffers lays them out."""
    obs_dim, act_dim = 5, 1
    config = SacConfig(buffer_size=40, batch_size=32, learning_starts=32, hidden=(8, 6))
    data = np.random.default_rng(3)
    buffer = ReplayBuffer(config.buffer_size, obs_dim, act_dim)
    for _ in range(config.buffer_size):
        buffer.add(*random_transition(data, obs_dim, act_dim))
    nets = make_sac_nets(obs_dim, act_dim, config, np.random.default_rng(4))
    passes = []
    real_forward = Mlp.forward_cached

    def forward_cached(self, x, cache=None):
        out, cache = real_forward(self, x, cache)
        passes.append(cache[1:])
        return out, cache

    monkeypatch.setattr(Mlp, "forward_cached", forward_cached)
    rng = np.random.default_rng(5)
    sac_update(nets, buffer, config, rng)
    first = passes[:]
    passes.clear()
    sac_update(nets, buffer, config, rng)
    # next-state sample, Q1', Q2', Q1 and Q2 regression, actor, Q1 and Q2 on its actions
    assert len(first) == len(passes) == 8
    for before, after in zip(first, passes):
        assert all(np.shares_memory(a, b) for a, b in zip(before, after))
    sets = [[0, 5], [1], [2], [3, 4], [6], [7]]
    for i, a in enumerate(passes):
        for j, b in enumerate(passes):
            same_set = any(i in s and j in s for s in sets)
            assert np.shares_memory(a[-1], b[-1]) == same_set, (i, j)


def train_keeping_nets(monkeypatch, env, config, rng):
    """sac_train's result and the SacNets it updated, caught from make_sac_nets."""
    made = []
    real_make = sac.make_sac_nets

    def make(*args):
        made.append(real_make(*args))
        return made[-1]

    monkeypatch.setattr(sac, "make_sac_nets", make)
    return sac_train(env, config, rng), made[0]


def test_train_defers_updates_until_learning_starts(rng, monkeypatch):
    env = make_env(rng)
    config = small_config(learning_starts=100, total_timesteps=24)
    result, nets = train_keeping_nets(monkeypatch, env, config, np.random.default_rng(1))
    # never warm: no optimizer ever stepped, history rows carry no stats
    assert nets.policy_opt.t == 0
    assert nets.critics_opt.t == 0
    assert nets.alpha + 0 == pytest.approx(config.alpha_init)
    assert all(set(row) == {"step", "episode_return"} for row in result.history)


def test_train_updates_once_warm_and_logs(rng, monkeypatch):
    env = make_env(rng)
    config = small_config()
    result, nets = train_keeping_nets(monkeypatch, env, config, np.random.default_rng(1))
    # one update per step from the step where the buffer reaches 8
    assert nets.policy_opt.t == config.total_timesteps - config.learning_starts + 1
    assert [row["step"] for row in result.history] == [8, 16, 24]
    last = result.history[-1]
    assert {"critic_loss", "actor_loss", "alpha", "batch_entropy"} <= set(last)
    assert all(np.isfinite(v) for k, v in last.items() if k != "episode_return")
    assert last["alpha"] != pytest.approx(config.alpha_init)  # temperature adapts


def test_training_log_keeps_the_loss_columns_of_rows_after_learning_starts(
    rng, tmp_path
):
    """Log rows before learning_starts carry no losses; the header still
    names every column, and those rows leave the loss cells empty."""
    config = small_config(learning_starts=20, total_timesteps=60, log_every=10)
    result = sac_train(make_env(rng, range(4, 60)), config, np.random.default_rng(1))
    path = tmp_path / "sac_train.csv"
    write_training_log(result.history, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,episode_return,critic_loss,actor_loss,alpha,batch_entropy"
    assert [line.split(",")[0] for line in lines[1:]] == ["10", "20", "30", "40", "50", "60"]
    assert lines[1].endswith(",,,,,")  # step 10: no episode ended, no update yet
    assert all("" not in line.split(",")[2:] for line in lines[2:])


@pytest.mark.parametrize("poison", ["critic_loss", "q2_target"])
def test_train_checks_finiteness_after_every_update(rng, monkeypatch, poison):
    """A non-finite update between log rows stops training at its own step."""
    config = small_config()  # updates from step 8, log rows at 8, 16, 24
    bad_step = 11
    real_update = sac.sac_update
    calls = []

    def update(nets, buffer, cfg, update_rng):
        stats = real_update(nets, buffer, cfg, update_rng)
        calls.append(stats)
        if len(calls) == bad_step - config.learning_starts + 1:
            if poison == "critic_loss":
                stats["critic_loss"] = float("nan")
            else:
                nets.targets.members()[1].params()[0] = np.nan
        return stats

    monkeypatch.setattr(sac, "sac_update", update)
    with pytest.raises(DivergenceDetected) as info:
        sac_train(make_env(rng), config, np.random.default_rng(1))
    assert info.value.artifacts["step"] == bad_step
    assert str(info.value) == f"non-finite {poison} at step {bad_step}"
    assert len(calls) == bad_step - config.learning_starts + 1


def test_train_determinism(rng):
    config = small_config()
    first = sac_train(make_env(np.random.default_rng(5)), config, np.random.default_rng(2))
    second = sac_train(make_env(np.random.default_rng(5)), config, np.random.default_rng(2))
    assert first.policy.to_json() == second.policy.to_json()
    for name in ("q1", "q2", "q1_target", "q2_target"):
        assert first.nets[name].params().tobytes() == second.nets[name].params().tobytes()
    assert first.nets["log_alpha"][0] == second.nets["log_alpha"][0]
    assert len(first.history) == len(second.history)
    for a, b in zip(first.history, second.history):
        assert set(a) == set(b)
        for key in a:
            # episode_return stays NaN until an episode completes
            assert a[key] == b[key] or (a[key] != a[key] and b[key] != b[key])


def test_config_validation():
    with pytest.raises(ValueError):
        SacConfig(tau=0.0)
    with pytest.raises(ValueError):
        SacConfig(alpha_init=-0.1)


def test_target_entropy_defaults_to_negative_act_dim(rng):
    nets = make_sac_nets(4, 3, SacConfig(), rng)
    assert nets.target_entropy == -3.0
    nets = make_sac_nets(4, 3, SacConfig(target_entropy=-1.5), rng)
    assert nets.target_entropy == -1.5
