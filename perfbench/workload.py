"""Run one benchmark workload in this process and write its result as JSON.

``run.py`` starts this script once per run, in its own process. A run:

1. sets up in a fresh directory: it writes the seeded input CSV, the run
   config and, for GAIL, the PPO expert checkpoint, trained through the CLI.
   The set-up time runs from process start to here;
2. repeats the CLI pipeline ``fetch -> train -> backtest`` through
   ``drltrade.cli.main`` in that directory until ``--seconds`` have passed,
   and at least ``MIN_REPEATS`` times. Untraced runs also time more set-ups,
   each in a fresh process (this script with ``--setup-only``), spread over
   the run and one at the end: ``SETUPS`` in all.

Every CLI call is one attempted op. It fails if it exits non-zero or raises,
if a backtest prints a report that does not parse, or if any file under the
run's ``out/`` differs from the first repeat's after the same op.

Every timing is also scaled to a fixed host speed: between ops the run times
a fixed reference loop, and each op's wall time is multiplied by
``REFERENCE_S`` over the mean of the reference times just before and after
it. The host this benchmark was built on switches between two speeds about
1.6x apart, in bursts of one to ten seconds, which moves unscaled medians by
far more than any bound; README.md has the measurements. End-to-end metrics
are medians of the scaled times; the unscaled ones are printed and recorded.

With ``--trace 1`` repeats alternate untraced and traced (``layers.install``
wraps drltrade's public functions); the per-layer metrics come from the traced
repeats, each span scaled by the factor of the op it sits in, and the tracing
overhead compares the median scaled repeat of each kind.
"""

import os

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)  # before numpy loads

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import datagen  # noqa: E402
import layers  # noqa: E402
from drltrade import cli  # noqa: E402
from drltrade.market_data import INTERVAL_MS  # noqa: E402
from spans import Tracer  # noqa: E402

MIN_REPEATS = 3
SETUPS = 7  # set-ups an untraced run times; setup_s is their median
INPUT_CSV = "input/klines.csv"
SINE_FEATURES = {"features": {"window": 8, "columns": ["close", "return", "rsi14"]},
                 "env": {"window": 8}}


@dataclass(frozen=True)
class Workload:
    data: str  # "sine" or "random_walk"
    algo: str
    n_bars: int
    interval: str
    split: float
    blocks: dict  # run-config blocks merged into the config
    fetch_calls: int  # CLI calls per repeat; short ops repeat to give many samples
    backtest_calls: int


# Why each workload exists is recorded in README.md next to this file.
WORKLOADS = {
    "ppo_sine": Workload(
        "sine", "ppo", 600, "4h", 0.8,
        {**SINE_FEATURES, "ppo": {"total_timesteps": 1024, "n_steps": 32, "n_epochs": 10,
                                  "hidden": [64, 64]}},
        fetch_calls=10, backtest_calls=10),
    "sac_sine": Workload(
        "sine", "sac", 600, "4h", 0.8,
        {**SINE_FEATURES, "sac": {"total_timesteps": 350, "batch_size": 256,
                                  "buffer_size": 1000, "learning_starts": 200,
                                  "log_every": 100, "hidden": [64, 64]}},
        fetch_calls=10, backtest_calls=10),
    "gail_sine": Workload(
        "sine", "gail", 600, "4h", 0.8,
        {**SINE_FEATURES,
         "ppo": {"total_timesteps": 2048, "n_steps": 32, "n_epochs": 10, "hidden": [64, 64]},
         "gail": {"total_timesteps": 4 * 512, "horizon": 512, "n_expert_episodes": 4,
                  "hidden": [64, 64]}},
        fetch_calls=10, backtest_calls=10),
    "minute_data": Workload(
        "random_walk", "ppo", 10_000, "1m", 0.7,
        {"ppo": {"total_timesteps": 64, "n_steps": 32, "n_epochs": 2, "hidden": [64, 64]}},
        fetch_calls=1, backtest_calls=1),
}

# Modules a traced run must see working, checked through their self time:
# the whole pipeline's, plus those of the workload's algorithm.
PIPELINE_MODULES = ("cli", "agents", "market_data", "indicators", "features", "env",
                    "neural", "buffers", "backtest")
ALGO_MODULES = {"ppo": ("ppo",), "sac": ("sac",), "gail": ("gail", "trpo")}

# Tiny sizes for the smoke mode: every op and metric, in seconds.
SMOKE = {
    "ppo_sine": {"n_bars": 120, "ppo": {"total_timesteps": 64, "n_steps": 16, "n_epochs": 2}},
    "sac_sine": {"n_bars": 120, "sac": {"total_timesteps": 40, "batch_size": 16,
                                        "buffer_size": 100, "learning_starts": 20,
                                        "log_every": 10}},
    "gail_sine": {"n_bars": 120, "ppo": {"total_timesteps": 64, "n_steps": 16},
                  "gail": {"total_timesteps": 64, "horizon": 32, "n_expert_episodes": 1}},
    "minute_data": {"n_bars": 3000},
}

END_TO_END = {
    "train_steps_per_s": "1/s",
    "fetch_bars_per_s": "1/s",
    "backtest_bars_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# The reference loop: batch-1 MLP-layer calls, the kind of work drltrade does
# most. Timed between ops, it tracks how fast the host runs at that moment.
# Timings are scaled to a host on which it takes REFERENCE_S (its time on the
# host this benchmark was defined on, at that host's faster speed).
REFERENCE_S = 1.25e-3
_REF_RNG = np.random.default_rng(0)
_REF_W, _REF_X = _REF_RNG.standard_normal((26, 64)), _REF_RNG.standard_normal((1, 26))


def reference_s() -> float:
    started = time.perf_counter()
    for _ in range(400):
        np.tanh(_REF_X @ _REF_W).sum()
    return time.perf_counter() - started


REPORT = re.compile(
    r"Begin Account Value\t(?P<begin>\S+)\n"
    r"End Account Value\t(?P<end>\S+)\n"
    r"Total Cost\t(?P<cost>\S+)\n"
    r"Total Trades\t(?P<trades>\d+)\n"
    r"Start Date/End Date\t\d{4}-\d\d-\d\d/\d{4}-\d\d-\d\d \(\d+ Days\)\n"
)


def workload_for(name: str, smoke: bool) -> Workload:
    w = WORKLOADS[name]
    if not smoke:
        return w
    small = dict(SMOKE[name])
    blocks = {k: {**v, **small.pop(k, {})} if isinstance(v, dict) else v
              for k, v in w.blocks.items()}
    return replace(w, blocks=blocks, fetch_calls=2, backtest_calls=2, **small)


def run_config(w: Workload, seed: int) -> dict:
    return {
        "symbol": "SINE" if w.data == "sine" else "WALK",
        "interval": w.interval,
        "data": {"csv": INPUT_CSV},
        "split_fraction": w.split,
        "algo": w.algo,
        "seed": seed,
        "out": "out",
        **w.blocks,
    }


def train_steps(w: Workload) -> int:
    block = w.blocks[w.algo]
    chunk = {"ppo": "n_steps", "gail": "horizon"}.get(w.algo)
    total = block["total_timesteps"]
    return total // block[chunk] * block[chunk] if chunk else total


def mtimes(directory: Path) -> dict:
    return {p: p.stat().st_mtime_ns for p in sorted(directory.rglob("*")) if p.is_file()}


def digest_tree(directory: Path, unchanged_since: dict | None = None) -> dict:
    """sha256 of every file under directory, or only of those written after a ``mtimes``."""
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p, mtime in mtimes(directory).items()
        if unchanged_since is None or unchanged_since.get(p) != mtime
    }


def call_cli(directory: Path, args: list) -> tuple:
    """Run ``drltrade`` in-process from ``directory``; returns (ok, wall_s, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            started = time.perf_counter()
            try:
                code = cli.main(["--config", "config.json", "--force", *args])
            except Exception:  # a crash is a failed op, not a crashed benchmark
                code = None
                traceback.print_exc()
            wall = time.perf_counter() - started
    finally:
        os.chdir(previous)
    if code != 0:
        print(f"drltrade {' '.join(args)} failed ({code}): {err.getvalue().strip()}",
              file=sys.stderr)
    return code == 0, wall, out.getvalue()


def parse_report(text: str):
    """Total trades from the five-line backtest report, or None if it does not parse."""
    match = REPORT.fullmatch(text)
    if match is None:
        return None
    try:
        values = [float(match[k]) for k in ("begin", "end", "cost")]
    except ValueError:
        return None
    return int(match["trades"]) if all(map(math.isfinite, values)) else None


def set_up(w: Workload, seed: int, directory: Path) -> dict:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    write = datagen.write_sine_csv if w.data == "sine" else datagen.write_random_walk_csv
    info = write(directory / INPUT_CSV, seed, w.n_bars, INTERVAL_MS[w.interval])
    (directory / "config.json").write_text(json.dumps(run_config(w, seed), indent=1))
    # GAIL reuses a PPO expert checkpoint when one exists; made here, so that
    # train ops time GAIL alone.
    if w.algo == "gail" and not call_cli(directory, ["train", "--algo", "ppo"])[0]:
        raise RuntimeError("set-up training failed")
    return info


def ops(w: Workload) -> list:
    return (
        [("fetch", ["fetch"])] * w.fetch_calls
        + [("train", ["train"])]
        + [("backtest", ["backtest"])] * w.backtest_calls
    )


def wall_summary(walls: list) -> str:
    """Sample count, median and the highest percentile with ten samples beyond it."""
    text = f"{len(walls)} ops, median {statistics.median(walls):.6g} s"
    for p in (99, 90):
        if len(walls) * (100 - p) / 100 >= 10:
            return text + f", p{p} {statistics.quantiles(walls, n=100)[p - 1]:.6g} s"
    return text


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_PINS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
    }


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    src = ROOT / "src"
    for p in sorted(src.rglob("*.py")):
        h.update(str(p.relative_to(src)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def probe_set_up(args, directory: Path) -> dict:
    """Time one more set-up in a fresh process, as this run's own was timed."""
    result = directory.with_suffix(".json")
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--work", str(directory), "--result", str(result), "--setup-only"]
    cmd += ["--smoke"] if args.smoke else []
    subprocess.run(cmd + ["--spawned-at", repr(time.monotonic())], check=True, timeout=120)
    return json.loads(result.read_text())


def measure(w: Workload, run_dir: Path, seconds: float, tracer, between) -> dict:
    """Repeat the pipeline; returns samples, op counts and the first repeat's artifacts.

    With a tracer, odd repeats are traced. ``between(elapsed_s)``, if given, is
    called after every repeat, outside the measured time.
    """
    samples, first = [], []
    attempted = failed = 0
    trades = artifacts = None
    started = time.perf_counter()
    repeat = 0
    ref_before = reference_s()
    while True:
        traced = tracer is not None and repeat % 2 == 1
        if traced:
            layers.install(tracer)
        try:
            for i, (op, argv) in enumerate(ops(w)):
                before = mtimes(run_dir / "out")
                ok, wall, stdout = call_cli(run_dir, argv)
                ref_after = reference_s()
                if threading.active_count() != 1:
                    print(f"{op} left threads running: {threading.enumerate()}", file=sys.stderr)
                    ok = False
                if ok and op == "backtest":
                    trades = parse_report(stdout)
                    ok = trades is not None
                written = digest_tree(run_dir / "out", unchanged_since=before)
                if repeat == 0:
                    first.append(written)
                elif written != first[i]:
                    changed = sorted(k for k in written.keys() | first[i].keys()
                                     if written.get(k) != first[i].get(k))
                    print(f"{op}: artifacts differ from the first repeat: {changed}",
                          file=sys.stderr)
                    ok = False
                attempted += 1
                failed += not ok
                samples.append({"op": op, "repeat": repeat, "traced": traced, "wall_s": wall,
                                "scaled_s": scaled(wall, ref_before, ref_after), "ok": ok})
                ref_before = ref_after
        finally:
            if traced:
                tracer.unpatch()
        if repeat == 0:
            artifacts = digest_tree(run_dir / "out")
        repeat += 1
        elapsed = time.perf_counter() - started
        if between is not None:
            # Time spent in between() is not part of the measured run, and the
            # next op is scaled by a reference timed after it.
            paused = time.perf_counter()
            between(elapsed)
            started += time.perf_counter() - paused
            ref_before = reference_s()
        if elapsed >= seconds and repeat >= MIN_REPEATS:
            break
    return {"samples": samples, "repeats": repeat, "attempted": attempted, "failed": failed,
            "trades": trades, "artifacts": artifacts}


def scaled(wall: float, ref_before: float, ref_after: float) -> float:
    """Wall time scaled to the reference host speed, by the references around it."""
    return wall * REFERENCE_S / (0.5 * (ref_before + ref_after))


def walls(samples: list, op: str, traced: bool = False, key: str = "scaled_s") -> list:
    return [s[key] for s in samples if s["op"] == op and s["traced"] == traced]


def end_to_end(w: Workload, samples: list, setups: list, lines: list) -> dict:
    """Medians of the scaled times: rates per op, and the set-up time."""
    units = {"train": train_steps(w), "fetch": w.n_bars,
             "backtest": w.n_bars - math.floor(w.n_bars * w.split)}
    values = {}
    for op, metric in (("train", "train_steps_per_s"), ("fetch", "fetch_bars_per_s"),
                       ("backtest", "backtest_bars_per_s")):
        values[metric] = units[op] / statistics.median(walls(samples, op))
        raw = walls(samples, op, key="wall_s")
        lines.append(f"{metric} {values[metric]:.6g} /s ({units[op]} per op; scaled "
                     f"{wall_summary(walls(samples, op))}; unscaled median "
                     f"{statistics.median(raw):.6g} s, fastest {min(raw):.6g} s)")
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["setup_s"] = statistics.median(s["scaled_s"] for s in setups)
    each = ", ".join(f"{s['scaled_s']:.4f} ({s['setup_s']:.4f})" for s in setups)
    lines.append(f"setup_s {values['setup_s']:.4f} (median of scaled set-ups, unscaled in "
                 f"brackets: {each}); peak_rss_mb {values['peak_rss_mb']:.1f}")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(w: Workload, tracer: Tracer, run: dict, expected_filled: int, work: Path,
              detail: dict, lines: list):
    """Per-layer metrics from the traced repeats; returns (metrics, trace checks passed)."""
    samples = run["samples"]
    repeat_walls = {t: [sum(s["scaled_s"] for s in samples if s["repeat"] == r)
                        for r in range(run["repeats"]) if (r % 2 == 1) == t]
                    for t in (False, True)}
    overhead = statistics.median(repeat_walls[True]) / statistics.median(repeat_walls[False]) - 1.0
    traced = [s for s in samples if s["traced"]]
    # Every span must sit inside the cli.main span of a traced op. Each span is
    # then scaled by the factor its op was scaled by.
    roots_ok = tracer.root_names() == ["cli.main"] * len(traced)
    if not roots_ok:
        print("traced spans do not sit one cli.main per op", file=sys.stderr)
    agg = tracer.aggregate([s["scaled_s"] / s["wall_s"] for s in traced] if roots_ok else None)
    metrics = layers.layer_metrics(agg, tracer.counts, len(walls(samples, "train", True)),
                                   run["trades"] or 0, overhead)
    idle = [m for m in PIPELINE_MODULES + ALGO_MODULES[w.algo]
            if not metrics[f"{m}.self_share"]["value"] > 0.0]
    if idle:
        print(f"modules with no self time in the traced run: {idle}", file=sys.stderr)
    filled = metrics["market_data.filled_bars"]["value"]
    ok = roots_ok and not idle and filled == expected_filled
    spans_path = work / "spans.csv.gz"
    tracer.dump(spans_path)
    detail.update(spans=str(spans_path.relative_to(ROOT)), span_count=len(tracer), layers=agg)
    lines.append(f"traced: {len(tracer)} spans in {len(traced)} ops, times scaled per op; "
                 f"overhead {overhead:+.3f}; filled bars {filled:.0f} of {expected_filled} "
                 "dropped rows")
    return metrics, ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="only set up, in --work, and report the set-up time")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before it started this process")
    parser.add_argument("--work", type=Path, required=True, help="directory for this run")
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()
    import_s = time.monotonic() - args.spawned_at
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"drltrade imported from {cli.__file__}, not from {ROOT / 'src'}")
    w = workload_for(args.workload, args.smoke)

    run_dir = args.work / "setup" if not args.setup_only else args.work
    ref_before = reference_s()
    started = time.perf_counter()
    data_info = set_up(w, args.seed, run_dir)
    setup_s = import_s + time.perf_counter() - started
    setups = [{"setup_s": setup_s, "scaled_s": scaled(setup_s, ref_before, reference_s()),
               "digests": digest_tree(run_dir)}]
    if args.setup_only:
        args.result.write_text(json.dumps(setups[0]))
        return 0

    # Untraced runs time SETUPS - 1 more set-ups, each in a fresh process:
    # evenly spread over the run, the last one after it.
    def probe():
        setups.append(probe_set_up(args, args.work / f"setup-probe{len(setups)}"))

    def between(elapsed):
        while len(setups) < SETUPS - 1 and elapsed >= args.seconds * len(setups) / (SETUPS - 1):
            probe()

    tracer = Tracer() if args.trace else None
    run = measure(w, run_dir, args.seconds, tracer, None if args.trace else between)
    if not args.trace:
        probe()
    detail = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
              "environment": environment(), "input": data_info, "import_s": import_s,
              "setups": setups, **run}
    lines = [f"{args.workload} seed {args.seed}: {run['repeats']} repeats, "
             f"{run['attempted']} ops, {run['failed']} failed"]
    setup_consistent = all(s["digests"] == setups[0]["digests"] for s in setups)
    if args.trace:
        metrics, trace_ok = per_layer(w, tracer, run, data_info["dropped_rows"], args.work,
                                      detail, lines)
    else:
        metrics, trace_ok = end_to_end(w, run["samples"], setups, lines), True
    artifacts = run["artifacts"]
    lines.append("environment " + json.dumps(detail["environment"], sort_keys=True))
    lines.append(f"artifacts {len(artifacts)} files, sha256 of listing "
                 + hashlib.sha256(json.dumps(artifacts, sort_keys=True).encode()).hexdigest())
    # The same code and seed must give the same artifacts in every run, too.
    # Runs are compared when they share the sources and the set-up files
    # (config, input CSV and, for GAIL, the expert).
    inputs = hashlib.sha256(json.dumps([detail["environment"]["src_sha256"],
                                        setups[0]["digests"]], sort_keys=True).encode())
    record = args.work.parent / "digests" / f"{args.workload}-{inputs.hexdigest()[:16]}.json"
    if record.is_file():
        across_runs = json.loads(record.read_text()) == artifacts
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(artifacts, indent=1, sort_keys=True))
        across_runs = True
    if not across_runs:
        print(f"artifacts differ from an earlier run with these inputs: {record}",
              file=sys.stderr)
    if not setup_consistent:
        print("set-ups produced different files", file=sys.stderr)
    correct = run["failed"] == 0 and setup_consistent and trace_ok and across_runs
    result = {"correct": correct, "attempted": run["attempted"], "failed": run["failed"],
              "metrics": metrics}
    detail["result"] = result
    args.result.write_text(json.dumps(detail, indent=1, sort_keys=True))
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
