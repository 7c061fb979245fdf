"""Adversarial imitation: dataset IO, discriminator math, training loop."""

import numpy as np
import pytest

from conftest import make_random_series
from drltrade.agents import (
    ExpertDataset,
    GailConfig,
    discriminator_loss_and_grads,
    gail_discriminator_update,
    gail_reward,
    gail_train,
    generate_expert_dataset,
    save_expert_dataset,
)
from drltrade.agents import gail
from drltrade.agents.gail import (
    discriminator_objective,
    discriminator_probability,
    make_gail_nets,
)
from drltrade.env import EnvConfig, TradingEnv
from drltrade.errors import DivergenceDetected, EmptyDataset
from drltrade.features import FeatureConfig, build_feature_matrix, fit_normalizer, normalize
from drltrade.neural import Adam, GaussianPolicy, Mlp, softplus
from oracles import (
    AllocatingAdam,
    allocating_gail_discriminator_update,
    allocating_gail_reward,
    fd_gradient,
    loose_net_gail_train,
    per_value_expert_csv,
    rerun_expert_dataset,
    vector_rel_error,
)


def make_env(rng, episode=range(4, 20)):
    series = make_random_series(rng, 60)
    config = FeatureConfig(window=4, columns=("close", "return"))
    matrix = build_feature_matrix(series, config)
    norm = normalize(matrix, fit_normalizer(matrix, range(matrix.valid_from, 60)))
    return TradingEnv(series, norm, EnvConfig(window=4), episode)


def test_dataset_validation():
    with pytest.raises(EmptyDataset):
        ExpertDataset(obs=np.empty((0, 3)), actions=np.empty((0, 1)))
    with pytest.raises(ValueError):
        ExpertDataset(obs=np.zeros((3, 2)), actions=np.zeros((2, 1)))


def test_dataset_round_trip(rng, tmp_path):
    dataset = ExpertDataset(
        obs=rng.normal(size=(7, 4)), actions=rng.normal(size=(7, 2))
    )
    path = tmp_path / "expert.csv"
    save_expert_dataset(dataset, path)
    header = path.read_text().splitlines()[0].split(",")
    assert header == [f"obs_{i}" for i in range(4)] + ["act_0", "act_1"]
    loaded = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(loaded[:, :4], dataset.obs)  # repr/float round trip is exact
    assert np.array_equal(loaded[:, 4:], dataset.actions)


def test_expert_csv_is_byte_identical_to_per_value_repr(rng, tmp_path):
    """Repeated values, signed zeros, NaN, infinities and subnormals."""
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
               2.2250738585072014e-308 / 3, 1e16, 0.1, -0.1]
    pool = np.concatenate([special, rng.normal(size=6)])
    obs = rng.choice(pool, size=(40, 9))
    obs[1:, :-1] = obs[:-1, 1:]  # each value recurs on the next rows, as in windows
    actions = rng.choice(pool, size=(40, 2))
    dataset = ExpertDataset(obs=obs, actions=actions)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    save_expert_dataset(dataset, got)
    per_value_expert_csv(dataset, want)
    assert got.read_bytes() == want.read_bytes()
    cells = set(got.read_text().replace("\n", ",").split(","))
    assert {"0.0", "-0.0", "nan", "inf", "-inf", "5e-324"} <= cells


def test_generate_expert_dataset_uses_pre_squash_means(rng):
    env = make_env(rng)
    policy = GaussianPolicy(env.observation_dim, 1, (4,), rng)
    dataset = generate_expert_dataset(policy, env, n_episodes=2, traj_limitation=7000)
    steps_per_episode = len(env.episode) - 1
    assert len(dataset) == 2 * steps_per_episode
    first_obs = env.reset()
    assert np.array_equal(dataset.obs[0], first_obs)
    assert np.array_equal(
        dataset.actions[0], policy.mean_net.forward(first_obs[None, :])[0]
    )
    truncated = generate_expert_dataset(policy, env, n_episodes=2, traj_limitation=5)
    assert len(truncated) == 5
    assert np.array_equal(truncated.obs, dataset.obs[:5])


@pytest.mark.parametrize("n_episodes", [1, 2, 3])
@pytest.mark.parametrize("limit", [7000, 45, 22, 9])
def test_expert_episode_runs_once_and_repeats(rng, monkeypatch, n_episodes, limit):
    """Byte-equal to rerunning every episode, also when the limit cuts one
    (15 steps per episode: 9 and 22 cut the first and second)."""
    env = make_env(rng)
    policy = GaussianPolicy(env.observation_dim, 1, (4,), rng)
    want_obs, want_act = rerun_expert_dataset(policy, env, n_episodes, limit)
    steps = []
    step = env.step
    monkeypatch.setattr(env, "step", lambda action: steps.append(1) or step(action))
    got = generate_expert_dataset(policy, env, n_episodes=n_episodes, traj_limitation=limit)
    assert len(steps) == len(env.episode) - 1
    assert got.obs.tobytes() == want_obs.tobytes()
    assert got.actions.tobytes() == want_act.tobytes()
    assert got.obs.shape == want_obs.shape and got.actions.shape == want_act.shape


def test_expert_without_episodes_is_empty(rng):
    env = make_env(rng)
    policy = GaussianPolicy(env.observation_dim, 1, (4,), rng)
    for n_episodes in (0, -1):
        with pytest.raises(EmptyDataset):
            generate_expert_dataset(policy, env, n_episodes=n_episodes)


def test_objective_at_half_is_minus_two_log_two():
    half = np.full(8, 0.5)
    assert discriminator_objective(half, half) == pytest.approx(
        -1.3862943611198906, abs=1e-12
    )


def flat_logit_disc(bias):
    """Single linear layer with zero weights: constant logit for any input."""
    disc = Mlp((3, 1), np.random.default_rng(0))
    disc.weights[0][:] = 0.0
    disc.biases[0][:] = bias
    return disc


def test_reward_is_negative_log_d():
    disc = flat_logit_disc(0.0)  # D = 0.5 everywhere
    obs, act = np.zeros((2, 2)), np.zeros((2, 1))
    assert np.allclose(gail_reward(disc, obs, act), np.log(2.0), atol=1e-12)


def test_reward_clamp_caps_at_minus_log_eps():
    disc = flat_logit_disc(-50.0)  # D underflows toward zero
    reward = gail_reward(disc, np.zeros((1, 2)), np.zeros((1, 1)))
    assert reward[0] == pytest.approx(-np.log(1e-8), abs=1e-9)
    disc = flat_logit_disc(50.0)  # D saturates at one
    reward = gail_reward(disc, np.zeros((1, 2)), np.zeros((1, 1)))
    assert reward[0] == pytest.approx(-np.log(1.0 - 1e-8), abs=1e-12)


def test_discriminator_gradients_match_finite_differences(rng):
    disc = Mlp((4, 5, 1), rng)
    expert_obs = rng.normal(size=(6, 3))
    expert_act = rng.normal(size=(6, 1))
    gen_obs = rng.normal(size=(9, 3))
    gen_act = rng.normal(size=(9, 1))
    stats, grads = discriminator_loss_and_grads(
        disc, expert_obs, expert_act, gen_obs, gen_act
    )
    assert 0.0 < stats["d_generator"] < 1.0
    assert 0.0 < stats["d_expert"] < 1.0

    def loss_of(flat):
        probe = disc.copy()
        probe.set_params(flat)
        gen_logits = probe.forward(np.concatenate([gen_obs, gen_act], axis=1))[:, 0]
        exp_logits = probe.forward(np.concatenate([expert_obs, expert_act], axis=1))[:, 0]
        return float(np.mean(softplus(-gen_logits)) + np.mean(softplus(exp_logits)))

    start = disc.params()
    assert loss_of(start) == pytest.approx(stats["disc_loss"], abs=1e-12)
    numeric = fd_gradient(loss_of, start)
    assert vector_rel_error(grads, numeric) < 1e-4


def test_update_drives_d_toward_labels(rng):
    disc = Mlp((3, 8, 1), rng)
    opt = Adam(disc.params(), lr=0.01)
    expert_obs = rng.normal(loc=-1.0, size=(32, 2))
    expert_act = rng.normal(loc=-1.0, size=(32, 1))
    gen_obs = rng.normal(loc=1.0, size=(32, 2))
    gen_act = rng.normal(loc=1.0, size=(32, 1))
    first = gail_discriminator_update(disc, opt, expert_obs, expert_act, gen_obs, gen_act)
    for _ in range(200):
        last = gail_discriminator_update(disc, opt, expert_obs, expert_act, gen_obs, gen_act)
    assert last["d_generator"] > first["d_generator"]
    assert last["d_expert"] < first["d_expert"]
    assert last["disc_loss"] < first["disc_loss"]
    assert last["d_generator"] > 0.9
    assert last["d_expert"] < 0.1
    # rewards shrink as the discriminator pins generator pairs at D -> 1
    assert gail_reward(disc, gen_obs, gen_act).mean() < np.log(2.0)


def test_train_dim_mismatch_raises(rng):
    env = make_env(rng)
    expert = ExpertDataset(obs=np.zeros((4, 3)), actions=np.zeros((4, 1)))
    with pytest.raises(ValueError):
        gail_train(env, expert, GailConfig(), np.random.default_rng(0))


def test_train_below_horizon_is_empty(rng):
    env = make_env(rng)
    policy = GaussianPolicy(env.observation_dim, 1, (4,), rng)
    expert = generate_expert_dataset(policy, env, n_episodes=1)
    config = GailConfig(total_timesteps=10, horizon=32, hidden=(8,))
    result = gail_train(env, expert, config, np.random.default_rng(0))
    assert result.history == []


def test_train_names_the_non_finite_statistic(rng, monkeypatch):
    env = make_env(np.random.default_rng(7))
    expert_policy = GaussianPolicy(env.observation_dim, 1, (4,), np.random.default_rng(11))
    expert = generate_expert_dataset(expert_policy, env, n_episodes=2)
    real_update = gail.gail_discriminator_update

    def update(*args):
        return {**real_update(*args), "disc_loss": float("nan")}

    monkeypatch.setattr(gail, "gail_discriminator_update", update)
    config = GailConfig(total_timesteps=64, horizon=32, hidden=(8,))
    with pytest.raises(DivergenceDetected) as info:
        gail_train(env, expert, config, np.random.default_rng(0))
    assert str(info.value) == "non-finite disc_loss at step 32"
    assert info.value.artifacts["step"] == 32


def test_train_history_and_determinism(rng):
    def run():
        env = make_env(np.random.default_rng(7))
        expert_policy = GaussianPolicy(env.observation_dim, 1, (4,), np.random.default_rng(11))
        expert = generate_expert_dataset(expert_policy, env, n_episodes=2)
        config = GailConfig(total_timesteps=64, horizon=32, hidden=(8,))
        return gail_train(env, expert, config, np.random.default_rng(0))

    result = run()
    assert [row["step"] for row in result.history] == [32, 64]
    for row in result.history:
        assert {"imitation_reward_mean", "kl", "surrogate", "step_accepted",
                "entropy", "disc_loss", "disc_objective", "d_generator",
                "d_expert"} <= set(row)
        assert 0.0 <= row["imitation_reward_mean"] <= -np.log(1e-8)
    repeat = run()
    assert result.policy.to_json() == repeat.policy.to_json()
    for name in ("value_net", "discriminator"):
        assert result.nets[name].to_json() == repeat.nets[name].to_json()
    assert result.history == repeat.history


# (episode, horizon): 15-step episodes that 32-step rollouts cross, and
# 16-step rollouts that stay inside one 55-step episode, so each rollout's
# tail bootstraps from the value net.
ROLLOUT_CASES = {"crossing": (range(4, 20), 32), "inside_one_episode": (range(4, 60), 16)}


def assert_train_matches_the_loose_net_train(episode, config, n_episodes=2):
    """Checkpoint networks and log rows of three rollouts against the loop on
    a loose policy and value net; returns the expert's pair count."""
    def run(train):
        env = make_env(np.random.default_rng(7), episode)
        expert_policy = GaussianPolicy(env.observation_dim, 1, (4,), np.random.default_rng(11))
        expert = generate_expert_dataset(expert_policy, env, n_episodes=n_episodes)
        return len(expert), train(env, expert, config, np.random.default_rng(0))

    (expert_pairs, result), (_, want) = run(gail_train), run(loose_net_gail_train)
    assert len(result.history) == 3
    assert result.networks_json() == want.networks_json()
    assert repr(result.history) == repr(want.history)
    return expert_pairs


@pytest.mark.parametrize("case", ROLLOUT_CASES)
def test_train_is_bit_identical_to_the_loose_net_train(case):
    episode, horizon = ROLLOUT_CASES[case]
    config = GailConfig(total_timesteps=3 * horizon, horizon=horizon, hidden=(8,))
    assert (len(episode) - 1 < config.total_timesteps) == (case == "crossing")
    assert_train_matches_the_loose_net_train(episode, config)


def test_train_with_an_expert_shorter_than_the_horizon_matches_the_loose_net_train():
    """The expert batch takes row views of the buffers: 55 pairs, 64-step
    rollouts, at the hidden sizes the benchmark trains."""
    config = GailConfig(total_timesteps=3 * 64, horizon=64, hidden=(64, 64))
    expert_pairs = assert_train_matches_the_loose_net_train(range(4, 60), config, n_episodes=1)
    assert expert_pairs == 55 < config.horizon


@pytest.mark.parametrize("expert_rows", [40, 48])
def test_discriminator_and_reward_through_buffers_match_the_allocating_forms(rng, expert_rows):
    """Two updates and rewards through NaN-filled buffers of more rows than
    either batch, against the allocating forms, by bytes."""
    nets = make_gail_nets(5, 1, GailConfig(hidden=(16, 8), horizon=56), rng)
    disc, want_disc = nets.disc, nets.disc.copy()
    want_opt = AllocatingAdam(want_disc.params(), lr=nets.disc_opt.lr)
    buffers = nets.buffers
    for array in [buffers.inputs, buffers.scratch, buffers.disc_grads,
                  *buffers.caches[0][1:], *buffers.caches[1][1:]]:
        array.fill(np.nan)
    gen_obs, gen_act = rng.normal(size=(48, 5)), rng.normal(size=(48, 1))
    exp_obs, exp_act = rng.normal(size=(expert_rows, 5)), rng.normal(size=(expert_rows, 1))
    for _ in range(2):
        got = gail_discriminator_update(disc, nets.disc_opt, exp_obs, exp_act, gen_obs, gen_act,
                                        buffers)
        want = allocating_gail_discriminator_update(want_disc, want_opt, exp_obs, exp_act,
                                                    gen_obs, gen_act)
        assert repr(got) == repr(want)
        assert disc.params().tobytes() == want_disc.params().tobytes()
        reward = gail_reward(disc, gen_obs, gen_act, buffers)
        assert reward.tobytes() == allocating_gail_reward(want_disc, gen_obs, gen_act).tobytes()
        assert gail_reward(disc, gen_obs, gen_act).tobytes() == reward.tobytes()
    assert np.isnan(buffers.inputs[:, 48:]).all()


def test_config_validation():
    with pytest.raises(ValueError):
        GailConfig(max_kl=0.0)
    with pytest.raises(ValueError):
        GailConfig(entropy_weight=-0.5)
