"""drltrade benchmark: one workload per run, in a child process.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload ppo_sine --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

A run starts ``perfbench/workload.py`` in one child process (which pins the
BLAS thread count to 1), waits for it, and prints the child's summary lines
followed by one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics. The full record of a run (every
sample, the stack it ran on, artifact digests, the span aggregate) is written
to ``.perfbench/<workload>/``.

``--smoke`` runs every workload at tiny sizes, traced and untraced, and checks
that each emits exactly the metrics BENCHMARK.json names, with their units.

Exit codes: 0 correct result, 1 incorrect result or failed run, 2 the
checkout holds no drltrade sources.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEADLINE_S = 175.0  # a run must end within 180 s


def run_workload(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False):
    """Run one workload in a child process; returns its result dict, or None."""
    work = ROOT / ".perfbench" / ("smoke" if smoke else "") / workload
    work.mkdir(parents=True, exist_ok=True)
    result_path = work / f"result-seed{seed}-trace{trace}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(ROOT / "perfbench" / "workload.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work", str(work), "--result", str(result_path)]
    if smoke:
        cmd.append("--smoke")
    cmd += ["--spawned-at", repr(time.monotonic())]
    # Its own session, so that on a timeout or an interrupt the child and the
    # set-up processes it starts are killed together.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        proc.wait(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {DEADLINE_S:.0f} s", file=sys.stderr)
        return None
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0 or not result_path.is_file():
        print(f"{workload}: workload process exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text())["result"]


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics(trace: int) -> dict:
    return {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}


def smoke() -> int:
    problems = []
    for workload in (w["name"] for w in spec()["workloads"]):
        for trace in (0, 1):
            started = time.monotonic()
            result = run_workload(workload, 0, 0.0, trace, smoke=True)
            if result is None:
                problems.append(f"{workload} trace {trace}: no result")
                continue
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != declared_metrics(trace):
                problems.append(f"{workload} trace {trace}: metrics or units differ "
                                "from BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{workload} trace {trace}: outputs incorrect")
            print(f"smoke {workload} trace {trace}: {len(emitted)} metrics, "
                  f"{result['attempted']} ops, {result['failed']} failed, "
                  f"{time.monotonic() - started:.1f} s", flush=True)
    for problem in problems:
        print(f"smoke FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one drltrade benchmark workload.")
    parser.add_argument("--workload", choices=[w["name"] for w in spec()["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes and check the metric names")
    args = parser.parse_args()
    if not (ROOT / "src" / "drltrade" / "cli.py").is_file():
        print(f"no drltrade sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # A terminated run still ends its child's process group, in run_workload.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
