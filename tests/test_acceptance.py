"""Acceptance checks for the whole laboratory, one criterion per test.

Each test prints exactly one line, ``criterion NN: PASS/FAIL - detail``, and
fails the run when its criterion is not met. Criteria 9 and 10 train real
agents and dominate the runtime, so they carry the ``slow`` marker
(``pytest -m "not slow"`` leaves them out); everything else finishes in
seconds. Run with ``pytest -s tests/test_acceptance.py`` to see the lines as
they appear.
"""

import json
import time
from dataclasses import dataclass, replace

import numpy as np
import pytest

import conftest
import oracles
from conftest import make_random_series, past_warmup
from drltrade import cli
from drltrade import indicators as ind
from drltrade.agents import (
    GailConfig,
    PpoBatch,
    PpoConfig,
    SacConfig,
    compute_gae,
    conjugate_gradient,
    gail_train,
    gaussian_kl,
    generate_expert_dataset,
    ppo_surrogate,
    ppo_train,
    sac_target,
    sac_train,
    trpo_step,
)
from drltrade.backtest import make_report, render_report, run_backtest
from drltrade.env import EnvConfig, TradingEnv
from drltrade.features import (
    FeatureConfig,
    assemble_observation,
    build_feature_matrix,
    fit_normalizer,
    normalize,
)
from drltrade.agents.gail import discriminator_objective
from drltrade.neural import ActorCritic, GaussianPolicy, Mlp


def report_criterion(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.CRITERION_LINES.append(line)
    assert ok, f"criterion {number:02d}: {detail}"


def joint_max_err(ours, brute) -> float:
    """Max abs difference where both sides are defined; NaN patterns must agree."""
    a = np.asarray(ours, dtype=float)
    b = np.asarray(brute, dtype=float)
    assert np.array_equal(np.isnan(a), np.isnan(b))
    mask = ~np.isnan(a)
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(a[mask] - b[mask])))


# -- criterion 1: indicator implementations against brute-force oracles -------


def test_criterion_01_indicator_oracles():
    started = time.monotonic()
    worst = 0.0
    for seed in range(100, 110):
        s = make_random_series(np.random.default_rng(seed), 60)
        h, l, c = s.highs, s.lows, s.closes
        pairs = [
            (ind.sma(c, 5), oracles.brute_sma(c, 5)),
            (ind.sma(c, 20), oracles.brute_sma(c, 20)),
            (ind.ema(c, 10), oracles.brute_ema(c, 10)),
            (ind.cci(s, 14), oracles.brute_cci(h, l, c, 14)),
            (ind.rsi(s, 14), oracles.brute_rsi(c, 14)),
            (ind.atr(s, 14), oracles.brute_atr(h, l, c, 14)),
            (ind.macd(s), oracles.brute_macd(c)),
        ]
        di_plus, di_minus, dx = ind.dmi(s, 14)
        b_plus, b_minus, b_dx = oracles.brute_dmi(h, l, c, 14)
        pairs += [(di_plus, b_plus), (di_minus, b_minus), (dx, b_dx)]
        mid, upper, lower = ind.bollinger(s, 20, 2.0)
        b_mid, b_up, b_lo = oracles.brute_bollinger(h, l, c, 20, 2.0)
        pairs += [(mid, b_mid), (upper, b_up), (lower, b_lo)]
        for ours, brute in pairs:
            worst = max(worst, joint_max_err(ours, brute))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-9 and elapsed < 5.0
    report_criterion(
        1, ok, f"max abs err {worst:.2e} over 10 fixtures x 13 series ({elapsed:.1f}s)"
    )


# -- criterion 2: bounds and shift/scale invariance ---------------------------


def scaled_shifted(series, scale, shift):
    return replace(
        series,
        opens=series.opens * scale + shift,
        highs=series.highs * scale + shift,
        lows=series.lows * scale + shift,
        closes=series.closes * scale + shift,
    )


def test_criterion_02_bounds_and_invariance():
    rng = np.random.default_rng(200)
    checked = 0
    for _ in range(100):
        s = make_random_series(rng, 60)
        rsi = past_warmup(ind.rsi(s, 14))
        dx = past_warmup(ind.dmi(s, 14)[2])
        assert np.all((rsi >= 0.0) & (rsi <= 100.0))
        assert np.all((dx >= 0.0) & (dx <= 100.0))
        mid, upper, lower = ind.bollinger(s, 20, 2.0)
        assert np.all(past_warmup(lower) <= past_warmup(mid) + 1e-12)
        assert np.all(past_warmup(mid) <= past_warmup(upper) + 1e-12)
        other = scaled_shifted(s, float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.0, 50.0)))
        for fn in (
            lambda x: past_warmup(ind.rsi(x, 14)),
            lambda x: past_warmup(ind.dmi(x, 14)[2]),
            lambda x: past_warmup(ind.cci(x, 14)),
        ):
            assert np.allclose(fn(s), fn(other), atol=1e-7, rtol=1e-7)
        checked += 1
    report_criterion(
        2, checked == 100,
        f"bounds and shift/scale invariance held on {checked}/100 fixtures",
    )


# -- criterion 3: truncating the future never changes the past ----------------


def truncated(series, last_index):
    return series[: last_index + 1]


def test_criterion_03_no_look_ahead():
    config = FeatureConfig(window=4, columns=("close", "return", "rsi14", "sma5"))
    pairs = 0
    for seed in range(300, 310):
        rng = np.random.default_rng(seed)
        s = make_random_series(rng, 80)
        full_matrix = build_feature_matrix(s, config)
        full_rsi = ind.rsi(s, 14)
        full_atr = ind.atr(s, 14)
        full_dx = ind.dmi(s, 14)[2]
        full_ema = ind.ema(s.closes, 10)
        for i in sorted(rng.choice(np.arange(20, 79), size=5, replace=False)):
            t = truncated(s, int(i))
            assert ind.rsi(t, 14)[i] == full_rsi[i]
            assert ind.atr(t, 14)[i] == full_atr[i]
            assert ind.dmi(t, 14)[2][i] == full_dx[i]
            assert ind.ema(t.closes, 10)[i] == full_ema[i]
            t_matrix = build_feature_matrix(t, config)
            assert np.array_equal(t_matrix.rows[i], full_matrix.rows[i])
            price = float(s.closes[i])
            obs_full = assemble_observation(full_matrix, int(i), 700.0, 3.0, price, 4, 1000.0)
            obs_cut = assemble_observation(t_matrix, int(i), 700.0, 3.0, price, 4, 1000.0)
            assert np.array_equal(obs_full, obs_cut)
            pairs += 1
    report_criterion(
        3, pairs == 50, f"{pairs}/50 truncation points left history bit-identical"
    )


# -- criterion 4: account ledger invariants -----------------------------------


def ledger_env(series, fee, penalty):
    config = FeatureConfig(window=3, columns=("close", "return"))
    matrix = build_feature_matrix(series, config)
    norm = normalize(matrix, fit_normalizer(matrix, range(matrix.valid_from, len(series))))
    env_config = EnvConfig(
        initial_balance=1000.0, fee_rate=fee, violation_penalty=penalty, window=3
    )
    return TradingEnv(series, norm, env_config)


def test_criterion_04_ledger_invariants():
    started = time.monotonic()
    rng = np.random.default_rng(400)
    sequences = 0
    worst_cost = 0.0
    worst_telescope = 0.0
    for seed in range(20):
        series = make_random_series(np.random.default_rng(500 + seed), 24)
        fee_env = ledger_env(series, fee=0.0075, penalty=-0.01)
        free_env = ledger_env(series, fee=0.0, penalty=0.0)
        steps = len(fee_env.episode) - 1
        for _ in range(50):
            actions = rng.uniform(-1.5, 1.5, size=steps)
            fee_env.reset()
            traded_notional = 0.0
            for a in actions:
                result = fee_env.step(a)
                assert fee_env.cash >= 0.0
                assert fee_env.asset_units >= 0.0
                traded_notional += abs(result.info.executed_units) * result.info.price
            worst_cost = max(
                worst_cost, abs(fee_env.total_cost - 0.0075 * traded_notional)
            )
            free_env.reset()
            total_reward = 0.0
            for a in actions:
                total_reward += free_env.step(a).reward
            delta_gv = free_env.last_gross_value - 1000.0
            worst_telescope = max(
                worst_telescope, abs(total_reward / 1e-4 - delta_gv)
            )
            sequences += 1
    elapsed = time.monotonic() - started
    ok = (
        sequences == 1000
        and worst_cost <= 1e-9
        and worst_telescope <= 1e-6
        and elapsed < 10.0
    )
    report_criterion(
        4, ok,
        f"{sequences} action sequences: cost err {worst_cost:.1e}, "
        f"telescoping err {worst_telescope:.1e} ({elapsed:.1f}s)",
    )


# -- criterion 5: network gradients against central differences ---------------


def test_criterion_05_mlp_gradients():
    worst = 0.0
    for sizes in ((3, 1), (4, 8, 1), (5, 6, 6, 2)):
        for trial in range(20):
            rng = np.random.default_rng(hash((sizes, trial)) % (2**32))
            net = Mlp(sizes, rng)
            x = rng.normal(size=(3, sizes[0]))
            w = rng.normal(size=sizes[-1])
            out, cache = net.forward_cached(x)
            grads = net.backward(cache, np.tile(w, (len(x), 1)) / len(x))

            def loss_of(flat):
                probe = net.copy()
                probe.set_params(flat)
                return float(np.mean(probe.forward(x) @ w))

            numeric = oracles.fd_gradient(loss_of, net.params())
            worst = max(worst, oracles.vector_rel_error(grads, numeric))
    ok = worst < 1e-4
    report_criterion(
        5, ok, f"max rel err {worst:.2e} over 3 architectures x 20 random nets"
    )


# -- criterion 6: closed-form training quantities -----------------------------


def test_criterion_06_analytic_cases():
    rng = np.random.default_rng(600)
    nets = ActorCritic.draw(3, 1, (4,), rng)
    obs = rng.normal(size=(1, 3))
    pre = rng.normal(size=(1, 1))
    checks = []
    for ratio, advantage, objective in (
        (1.5, 1.0, 1.2),
        (0.5, 1.0, 0.5),
        (1.5, -1.0, -1.5),
        (0.5, -1.0, -0.8),
    ):
        old = nets.policy.log_prob(obs, pre) - np.log(ratio)
        stats, _ = ppo_surrogate(
            nets, PpoBatch.of(obs, pre, old, np.array([advantage]), np.zeros(1)),
            PpoConfig(clip=0.2),
        )
        checks.append(abs(stats["policy_loss"] + objective) <= 1e-9)

    entropy = GaussianPolicy(3, 1, (4,), rng).entropy()  # log_std starts at zero
    checks.append(abs(entropy - 1.418939) <= 1e-6)

    half = np.full(16, 0.5)
    checks.append(abs(discriminator_objective(half, half) - (-1.386294)) <= 1e-6)

    y = sac_target(
        np.array([0.0]), np.array([0.0]), np.array([2.0]), np.array([3.0]),
        np.array([-1.0]), alpha=0.1, gamma=0.99,
    )
    checks.append(abs(y[0] - 2.079) <= 1e-9)
    y = sac_target(
        np.array([0.7]), np.array([1.0]), np.array([5.0]), np.array([1.0]),
        np.array([0.0]), alpha=0.2, gamma=0.9,
    )
    checks.append(abs(y[0] - 0.7) <= 1e-12)
    report_criterion(
        6, all(checks),
        f"{sum(checks)}/{len(checks)} closed-form values matched "
        "(clip grid, entropy, discriminator, targets)",
    )


# -- criterion 7: advantage estimation against the definitional sum -----------


def test_criterion_07_gae_brute_force():
    worst = 0.0
    fixtures = 0
    for lam in (0.0, 0.95, 1.0):
        for seed in range(10):
            rng = np.random.default_rng(700 + seed)
            rewards = rng.normal(size=5)
            values = rng.normal(size=5)
            dones = (rng.uniform(size=5) < 0.3).astype(float)
            last_value = float(rng.normal())
            adv, ret = compute_gae(rewards, values, dones, last_value, 0.99, lam)
            b_adv, b_ret = oracles.brute_gae(rewards, values, dones, last_value, 0.99, lam)
            worst = max(worst, float(np.max(np.abs(adv - b_adv))))
            worst = max(worst, float(np.max(np.abs(ret - b_ret))))
            fixtures += 1
    ok = worst < 1e-10 and fixtures == 30
    report_criterion(
        7, ok, f"max err {worst:.1e} over {fixtures} five-step fixtures, lam in {{0, 0.95, 1}}"
    )


# -- criterion 8: trust-region steps respect the KL budget --------------------


def test_criterion_08_trpo_kl_budget():
    a = np.array([[2.0, 0.0], [0.0, 4.0]])
    x = conjugate_gradient(lambda v: a @ v, np.array([2.0, 4.0]), iters=10)
    cg_ok = bool(np.allclose(x, [1.0, 1.0], atol=1e-12))

    max_kl = 0.01
    accepted = 0
    budget_ok = True
    for seed in range(20):
        rng = np.random.default_rng(800 + seed)
        policy = GaussianPolicy(3, 1, (4,), rng)
        obs = rng.normal(size=(16, 3))
        _, pre, log_probs = policy.sample(obs, rng)
        advantages = rng.normal(size=16)
        advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        before = policy.copy()
        stats = trpo_step(policy, obs, pre, advantages, log_probs, max_kl=max_kl)
        if not stats.accepted:
            continue
        accepted += 1
        mean_old = before.mean_net.forward(obs)
        mean_new = policy.mean_net.forward(obs)
        kl = gaussian_kl(
            mean_old, np.broadcast_to(before.std(), mean_old.shape),
            mean_new, np.broadcast_to(policy.std(), mean_new.shape),
        )
        budget_ok = budget_ok and kl <= max_kl + 1e-12
    ok = cg_ok and budget_ok and accepted >= 10
    report_criterion(
        8, ok, f"CG exact on the 2x2 case; {accepted}/20 steps accepted, all within KL budget"
    )


# -- criteria 9 and 10: learning on the synthetic sine market -----------------


# The sine market of criteria 9 and 10: the CLI's default 600-bar sine, of
# which the first 480 bars train.
SINE_LAB = cli.RunConfig(
    split_fraction=0.8,
    features=FeatureConfig(window=8, columns=("close", "return", "rsi14")),
    env=EnvConfig(window=8),
)


@dataclass
class SineLab:
    train_env: TradingEnv
    test_env: TradingEnv

    def held_out_profit(self, policy) -> float:
        report, _ = run_backtest(policy, self.test_env)
        return report.end_value - report.begin_value


@pytest.fixture(scope="module")
def sine_lab() -> SineLab:
    train_env, test_env, _ = cli.prepare(SINE_LAB)
    return SineLab(train_env, test_env)


@pytest.fixture(scope="module")
def ppo_runs(sine_lab):
    runs = []
    for seed in range(5):
        started = time.monotonic()
        result = ppo_train(
            sine_lab.train_env, PpoConfig(total_timesteps=20_000),
            np.random.default_rng(seed),
        )
        runs.append(
            {
                "seed": seed,
                "policy": result.policy,
                "profit": sine_lab.held_out_profit(result.policy),
                "seconds": time.monotonic() - started,
            }
        )
    return runs


@pytest.mark.slow
def test_criterion_09_sine_profitability(sine_lab, ppo_runs):
    ppo_hits = sum(run["profit"] > 0.0 for run in ppo_runs)
    ppo_max_s = max(run["seconds"] for run in ppo_runs)

    sac_hits = 0
    sac_max_s = 0.0
    sac_config = SacConfig(total_timesteps=20_000, batch_size=256, log_every=5000)
    for seed in range(5):
        started = time.monotonic()
        result = sac_train(sine_lab.train_env, sac_config, np.random.default_rng(seed))
        sac_max_s = max(sac_max_s, time.monotonic() - started)
        sac_hits += sine_lab.held_out_profit(result.policy) > 0.0

    ok = ppo_hits >= 4 and sac_hits >= 4 and ppo_max_s < 600.0 and sac_max_s < 600.0
    report_criterion(
        9, ok,
        f"ppo {ppo_hits}/5 profitable (max {ppo_max_s:.0f}s/run), "
        f"sac {sac_hits}/5 profitable (max {sac_max_s:.0f}s/run)",
    )


@pytest.mark.slow
def test_criterion_10_imitation_recovers_expert(sine_lab, ppo_runs):
    best = max(ppo_runs, key=lambda run: run["profit"])
    bar = 0.5 * best["profit"]
    expert = generate_expert_dataset(
        best["policy"], sine_lab.train_env, n_episodes=10, traj_limitation=7000
    )
    config = GailConfig(total_timesteps=50_000, horizon=512)
    hits = 0
    max_s = 0.0
    for seed in range(5):
        started = time.monotonic()
        result = gail_train(
            sine_lab.train_env, expert, config, np.random.default_rng(seed)
        )
        max_s = max(max_s, time.monotonic() - started)
        hits += sine_lab.held_out_profit(result.policy) >= bar
    ok = hits >= 3 and max_s < 900.0 and best["profit"] > 0.0
    report_criterion(
        10, ok,
        f"{hits}/5 seeds reached half the expert profit "
        f"({bar:+.0f}, max {max_s:.0f}s/run)",
    )


# -- criterion 11: byte-identical artifacts across reruns ---------------------

SMALL_RUN = {
    "symbol": "SINE",
    "interval": "4h",
    "data": {"synthetic": {"n_bars": 80, "amplitude": 0.1, "period": 40}},
    "split_fraction": 0.8,
    "algo": "ppo",
    "seed": 0,
    "features": {"window": 4, "columns": ["close", "return"]},
    "env": {"window": 4},
    "ppo": {"total_timesteps": 64, "n_steps": 16, "hidden": [8]},
}

COMPARED_ARTIFACTS = (
    "checkpoints/ppo.json",
    "logs/ppo_train.csv",
    "reports/ppo_report.json",
    "reports/ppo_report.txt",
    "reports/ppo_annotated.csv",
)


def test_criterion_11_reproducibility(tmp_path):
    def run(label):
        out = tmp_path / label
        cfg = tmp_path / f"{label}.json"
        cfg.write_text(json.dumps({**SMALL_RUN, "out": str(out)}))
        assert cli.main(["--config", str(cfg), "train"]) == 0
        assert cli.main(["--config", str(cfg), "backtest"]) == 0
        return {rel: (out / rel).read_bytes() for rel in COMPARED_ARTIFACTS}

    first = run("first")
    second = run("second")
    identical = [rel for rel in COMPARED_ARTIFACTS if first[rel] == second[rel]]
    ok = len(identical) == len(COMPARED_ARTIFACTS)
    report_criterion(
        11, ok,
        f"{len(identical)}/{len(COMPARED_ARTIFACTS)} train+backtest artifacts "
        "byte-identical across reruns",
    )


# -- criterion 12: report formatting ------------------------------------------


def test_criterion_12_report_format():
    from datetime import date

    report = make_report(
        10000, 14546.08504638672, 649.9545043945312, 474,
        date(2021, 2, 24), date(2021, 5, 1),
    )
    rendered_ok = render_report(report) == (
        "Begin Account Value\t10000\n"
        "End Account Value\t14546.08504638672\n"
        "Total Cost\t649.9545043945312\n"
        "Total Trades\t474\n"
        "Start Date/End Date\t2021-02-24/2021-05-01 (66 Days)"
    )
    ratio_ok = abs(report.profit_ratio - 1.4546) <= 1e-4

    unit = make_report(
        1.0, 1.1792819791357025, 0.05, 12, date(2021, 2, 24), date(2021, 3, 1)
    )
    unit_ok = (
        render_report(unit).splitlines()[0] == "Begin Account Value\t1.0"
        and unit.profit_ratio == 1.1792819791357025
    )
    ok = rendered_ok and ratio_ok and unit_ok
    report_criterion(
        12, ok,
        f"five-line format exact, profit ratio {report.profit_ratio:.4f} within 1e-4 of 1.4546",
    )
