#!/usr/bin/env python3
"""Time per update and minor page faults per update of SAC's or PPO's update.

``sac`` runs ``sac_update`` on a replay buffer of random transitions at the
given observation width, batch size and hidden sizes (one action, buffer
``--buffer`` transitions, ``learning_starts`` = batch). ``ppo`` runs
``ppo_epoch``, the epoch ``ppo_train`` runs, on a random batch of ``--batch``
rows with buffers allocated once, as ``ppo_train`` allocates them: one
stacked pass of the policy and the value net and one Adam step over their
parameter block. Both first run ``--warmup`` updates,
then time ``--updates`` more, one by one, reading ``getrusage``'s
``ru_minflt`` around each. It prints one line: the median, first and third
quartile of the microseconds per update and the mean minor faults per update.
The BLAS thread count is pinned to 1 before numpy loads.

Usage, from the root of the repository:

    PYTHONPATH=src python3 scripts/alloc_probe.py sac --obs 26 --batch 256 --hidden 64 64
    PYTHONPATH=src python3 scripts/alloc_probe.py ppo --obs 1082 --batch 32 --hidden 64 64

Exit codes: 0 printed, 2 bad arguments. Needs only the standard library,
numpy and drltrade.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads

import argparse  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from drltrade.agents import ReplayBuffer, SacConfig, make_sac_nets, sac_update  # noqa: E402
from drltrade.agents.ppo import (  # noqa: E402
    PpoBatch,
    PpoBuffers,
    PpoConfig,
    make_ppo_nets,
    ppo_epoch,
)


def sac_step(obs_dim: int, batch: int, hidden: tuple, buffer_size: int, rng):
    """A function that runs one ``sac_update`` on a full buffer of random transitions."""
    config = SacConfig(buffer_size=buffer_size, batch_size=batch, learning_starts=batch,
                       hidden=hidden)
    nets = make_sac_nets(obs_dim, 1, config, rng)
    buffer = ReplayBuffer(buffer_size, obs_dim, 1)
    for _ in range(buffer_size):
        buffer.add(rng.normal(size=obs_dim), rng.normal(size=1), rng.normal(),
                   rng.normal(size=obs_dim), rng.random() < 0.05)
    return lambda: sac_update(nets, buffer, config, rng)


def ppo_step(obs_dim: int, batch: int, hidden: tuple, rng):
    """A function that runs one ``ppo_epoch`` on a fixed random batch."""
    config = PpoConfig(hidden=hidden, n_steps=batch)
    nets = make_ppo_nets(obs_dim, 1, config, rng)
    buffers = PpoBuffers.allocate(nets, batch)
    obs = rng.normal(size=(batch, obs_dim))
    pre = rng.normal(size=(batch, 1))
    old_log_probs = nets.policy.log_prob(obs, pre)
    advantages, returns = rng.normal(size=batch), rng.normal(size=batch)
    rollout = PpoBatch.of(obs, pre, old_log_probs, advantages, returns)
    return lambda: ppo_epoch(nets, rollout, config, buffers)


def probe(step, warmup: int, updates: int) -> tuple[list[float], list[int]]:
    """Microseconds and minor faults of each of ``updates`` calls after ``warmup``."""
    for _ in range(warmup):
        step()
    micros, faults = [], []
    for _ in range(updates):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        step()
        micros.append((time.perf_counter() - start) * 1e6)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return micros, faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("algo", choices=("sac", "ppo"))
    parser.add_argument("--obs", type=int, default=26, help="observation width")
    parser.add_argument("--batch", type=int, default=256, help="rows per update")
    parser.add_argument("--hidden", type=int, nargs="+", default=[64, 64])
    parser.add_argument("--buffer", type=int, default=1000, help="SAC replay transitions")
    parser.add_argument("--warmup", type=int, default=20)
    parser.add_argument("--updates", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if min(args.obs, args.batch, args.updates, *args.hidden) < 1 or args.warmup < 0:
        parser.error("sizes and --updates must be positive, --warmup not negative")
    if args.algo == "sac" and args.buffer < args.batch:
        parser.error("--buffer must hold at least --batch transitions")
    rng = np.random.default_rng(args.seed)
    hidden = tuple(args.hidden)
    if args.algo == "sac":
        step = sac_step(args.obs, args.batch, hidden, args.buffer, rng)
    else:
        step = ppo_step(args.obs, args.batch, hidden, rng)
    micros, faults = probe(step, args.warmup, args.updates)
    q1, median, q3 = statistics.quantiles(micros, n=4) if len(micros) > 1 else micros * 3
    print(f"{args.algo} obs {args.obs} batch {args.batch} hidden "
          f"{'x'.join(map(str, hidden))}: {median:.0f} us/update [{q1:.0f}, {q3:.0f}], "
          f"{statistics.fmean(faults):.2f} minor faults/update "
          f"({args.updates} updates after {args.warmup})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
