#!/usr/bin/env python3
"""Train a PPO agent on a synthetic sine-wave market and print its backtest.

Quick end-to-end sanity run (about a minute): generates a deterministic
oscillating price series, trains on the first 80%, then reports profit on the
held-out tail including the forced final liquidation. Profit ratio > 1 means
the agent learned to buy troughs and sell crests despite the 0.75% fee.
"""

import argparse
import time
from collections import Counter

import numpy as np

from drltrade.agents import PpoConfig, ppo_train
from drltrade.backtest import render_report, run_backtest
from drltrade.env import EnvConfig, TradingEnv
from drltrade.features import FeatureConfig, build_feature_matrix, fit_normalizer, normalize
from drltrade.synthetic import make_sine_series


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--timesteps", type=int, default=20_000)
    parser.add_argument("--bars", type=int, default=600)
    args = parser.parse_args()

    series = make_sine_series(n_bars=args.bars, base=100.0, amplitude=0.1, period=40)
    feature_config = FeatureConfig(window=8, columns=("close", "return", "rsi14"))
    matrix = build_feature_matrix(series, feature_config)
    n_train = int(args.bars * 0.8)
    normalizer = fit_normalizer(matrix, range(matrix.valid_from, n_train))
    norm_matrix = normalize(matrix, normalizer)

    env_config = EnvConfig(window=feature_config.window)
    first_t = matrix.valid_from + feature_config.window - 1
    train_env = TradingEnv(series, norm_matrix, env_config, range(first_t, n_train))
    test_env = TradingEnv(series, norm_matrix, env_config, range(n_train, args.bars))

    rng = np.random.default_rng(args.seed)
    config = PpoConfig(total_timesteps=args.timesteps)
    started = time.monotonic()
    result = ppo_train(train_env, config, rng)
    print(f"trained {args.timesteps} steps in {time.monotonic() - started:.1f}s")

    report, annotated = run_backtest(result.policy, test_env)
    print(render_report(report))
    counts = Counter(row.marker for row in annotated)
    print(f"markers\tbuy={counts['buy']} sell={counts['sell']} hold={counts['hold']}")


if __name__ == "__main__":
    main()
