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
from drltrade.backtest import marker, render_report, run_backtest
from drltrade.cli import RunConfig, prepare
from drltrade.env import EnvConfig
from drltrade.features import FeatureConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--timesteps", type=int, default=20_000)
    parser.add_argument("--bars", type=int, default=600)
    args = parser.parse_args()

    # The market and its split, as a run config: `drltrade train` would
    # build the same two envs from it.
    run = RunConfig(
        data={"synthetic": {"n_bars": args.bars}},
        split_fraction=0.8,
        features=FeatureConfig(window=8, columns=("close", "return", "rsi14")),
        env=EnvConfig(window=8),
    )
    train_env, test_env, _ = prepare(run)

    rng = np.random.default_rng(args.seed)
    config = PpoConfig(total_timesteps=args.timesteps)
    started = time.monotonic()
    result = ppo_train(train_env, config, rng)
    print(f"trained {args.timesteps} steps in {time.monotonic() - started:.1f}s")

    report, ledger = run_backtest(result.policy, test_env)
    print(render_report(report))
    counts = Counter(marker(info.executed_units) for info in ledger)
    print(f"markers\tbuy={counts['buy']} sell={counts['sell']} hold={counts['hold']}")


if __name__ == "__main__":
    main()
