#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, summarized per metric.

Exports ``git archive <base>`` into a temporary directory and runs
``perfbench/run.py`` there and in this working tree, one after the other, once
per seed; which side runs first alternates from pair to pair. Each side runs
its own ``perfbench/``. Then, for every end-to-end metric of BENCHMARK.json,
it prints base -> change as median [first quartile, third quartile], the ratio
of the medians, how many pairs the change won (ties count for neither side;
the direction comes from BENCHMARK.json) and whether the gap between the
medians exceeds the base's quartile spread. Every run lasts the
``run_seconds`` of BENCHMARK.json, on both sides.

Each pair also reports whether both runs wrote the same artifacts: their
records' ``artifacts`` digests (sha256 of every file the first repeat wrote)
are compared, and a summary line counts the pairs in which they match.

The metrics are medians of host-speed-scaled times. The unscaled median op
times (``wall_s`` of the untraced samples in each run's record) are printed
beside them, so that a shift caused by the scaling alone shows.

Usage, from the root of the repository:

    python3 scripts/bench_pairs.py --base HEAD --workload gail_sine --pairs 10 --first-seed 21

Exit codes: 0 every run correct, 1 a run failed or was not correct, 2 bad
arguments or an unknown revision. Needs only the Python standard library.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OPS = ("train", "fetch", "backtest")


def export_revision(rev: str, dest: Path) -> None:
    """Write the files of ``rev`` into ``dest``, as ``git archive`` gives them."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    # The "data" filter exists from Python 3.12 and in the 3.10.12 and 3.11.4
    # backports; the archive is this repository's own, so it is only a guard.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, **safe)


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run in ``root``; returns its metrics and unscaled op medians."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    # run.py prints its result, correct or not, as the last line; it exits 1
    # for an incorrect run and for a run with no result.
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{root}: exit {proc.returncode}\n{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{root}: run not correct ({result['failed']} of "
                           f"{result['attempted']} ops failed)\n{proc.stderr.strip()}")
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: exit {proc.returncode}\n{proc.stderr.strip()}")
    record = json.loads((root / ".perfbench" / workload / f"result-seed{seed}-trace0.json")
                        .read_text())
    unscaled = {op: statistics.median(s["wall_s"] for s in record["samples"]
                                      if s["op"] == op and not s["traced"])
                for op in OPS}
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "unscaled": unscaled, "artifacts": record.get("artifacts")}


def same_artifacts(base: dict, change: dict) -> bool:
    """Whether two run records hold the same, non-empty ``artifacts`` digests."""
    return bool(base.get("artifacts")) and base.get("artifacts") == change.get("artifacts")


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(name: str, base: list, change: list, higher_is_better: bool, fmt: str) -> str:
    """One line: base -> change, ratio, the change's wins, and the gap against the base IQR."""
    b1, b2, b3 = quartiles(base)
    c1, c2, c3 = quartiles(change)
    wins = sum((c > b) if higher_is_better else (c < b) for b, c in zip(base, change))
    gap = abs(c2 - b2) > b3 - b1
    ratio = c2 / b2 if b2 else float("nan")
    return (f"  {name:<22} {b2:{fmt}} [{b1:{fmt}}, {b3:{fmt}}] -> {c2:{fmt}} "
            f"[{c1:{fmt}}, {c3:{fmt}}]  x{ratio:.3f}  change better in "
            f"{wins}/{len(base)}  gap > base IQR: {'yes' if gap else 'no'}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: every workload)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    higher = {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        base_root = Path(tmp)
        try:
            export_revision(args.base, base_root)
        except subprocess.CalledProcessError as exc:
            print(f"cannot export {args.base}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        for workload in workloads:
            runs = {"base": [], "change": []}
            same = 0
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    root = base_root if side == "base" else ROOT
                    try:
                        runs[side].append(run_side(root, workload, seed, spec["run_seconds"]))
                    except RuntimeError as exc:
                        print(f"{workload} seed {seed} {side}: {exc}", file=sys.stderr)
                        return 1
                b, c = runs["base"][-1], runs["change"][-1]
                match = same_artifacts(b, c)
                same += match
                print(f"{workload} seed {seed} ({order[0]} first): " + ", ".join(
                    f"{k} {b['metrics'][k]:.5g} -> {c['metrics'][k]:.5g}"
                    for k in higher) + f", same artifacts: {'yes' if match else 'no'}",
                    flush=True)
            print(f"{workload}: {args.pairs} pairs, {args.base} -> working tree, "
                  f"median [quartiles]")
            print(f"  same artifacts in {same}/{args.pairs} pairs")
            for metric, up in higher.items():
                print(compare(metric, [r["metrics"][metric] for r in runs["base"]],
                              [r["metrics"][metric] for r in runs["change"]], up, ".5g"))
            print("  unscaled median op time, s:")
            for op in OPS:
                print(compare(op, [r["unscaled"][op] for r in runs["base"]],
                              [r["unscaled"][op] for r in runs["change"]], False, ".4g"))
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
