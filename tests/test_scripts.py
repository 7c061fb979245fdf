"""The scripts under ``scripts/`` run end to end."""

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from drltrade import cli
from drltrade.neural import CHECKPOINT_FORMAT_VERSION, GaussianPolicy, load_checkpoint
from test_cli import write_config

ROOT = Path(__file__).resolve().parent.parent


def test_sine_demo_prints_report_and_markers():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_sine_demo.py"),
         "--bars", "80", "--timesteps", "64"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    labels = [line.split("\t")[0] for line in proc.stdout.splitlines()[1:]]
    assert labels == [
        "Begin Account Value",
        "End Account Value",
        "Total Cost",
        "Total Trades",
        "Start Date/End Date",
        "markers",
    ]
    markers = proc.stdout.splitlines()[-1].split("\t")[1].split()
    assert [m.split("=")[0] for m in markers] == ["buy", "sell", "hold"]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_compares_artifact_digests():
    same_artifacts = load_script("bench_pairs").same_artifacts
    record = {"correct": True, "artifacts": {"out/a.csv": "ab12", "out/b.json": "cd34"}}
    assert same_artifacts(record, {**record, "correct": False})
    assert not same_artifacts(record, {"artifacts": {"out/a.csv": "ab12", "out/b.json": "ff"}})
    assert not same_artifacts(record, {"artifacts": {"out/a.csv": "ab12"}})
    assert not same_artifacts(record, {})
    assert not same_artifacts({"artifacts": {}}, {"artifacts": {}})


@pytest.mark.parametrize("args", [
    ["sac", "--obs", "3", "--batch", "8", "--buffer", "10", "--hidden", "4"],
    ["ppo", "--obs", "3", "--batch", "4", "--hidden", "4", "3"],
])
def test_alloc_probe_prints_time_and_faults_per_update(args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = [sys.executable, str(ROOT / "scripts" / "alloc_probe.py"), *args,
              "--warmup", "1", "--updates", "3"]
    proc = subprocess.run(script, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    hidden = "x".join(args[args.index("--hidden") + 1:])
    assert re.fullmatch(
        rf"{args[0]} obs 3 batch {args[4]} hidden {hidden}: \d+ us/update \[\d+, \d+\], "
        r"\d+\.\d\d minor faults/update \(3 updates after 1\)\n", proc.stdout), proc.stdout


def test_alloc_probe_refuses_a_buffer_smaller_than_the_batch():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = [sys.executable, str(ROOT / "scripts" / "alloc_probe.py"), "sac", "--batch", "8",
              "--buffer", "4"]
    proc = subprocess.run(script, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "--buffer must hold at least --batch" in proc.stderr


def test_checkpoint_info_summarizes_each_network(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "c.json", out, algo="sac")
    assert cli.main(["--config", str(cfg), "train"]) == cli.EXIT_OK
    ckpt = out / "checkpoints" / "sac.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = [sys.executable, str(ROOT / "scripts" / "checkpoint_info.py"), str(ckpt)]
    proc = subprocess.run(script, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = load_checkpoint(ckpt)
    lines = dict(line.split("\t", 1) for line in proc.stdout.splitlines())
    assert lines["format_version"] == str(CHECKPOINT_FORMAT_VERSION)
    assert lines["kind"] == '"sac"'
    assert json.loads(lines["train_data"]) == doc["train_data"]
    assert sorted(lines) == sorted(["format_version", "kind", "train_data", "policy", "q1", "q2",
                                    "q1_target", "q2_target"])
    policy = GaussianPolicy.from_json(doc["policy"]).params()
    fields = dict(field.split(" ", 1) for field in lines["policy"].split("\t"))
    assert fields == {
        "sizes": str(doc["policy"]["sizes"]),
        "params": str(policy.size),
        "finite": "True",
        "min": str(policy.min()),
        "max": str(policy.max()),
        "sha256": hashlib.sha256(policy.astype("<f8").tobytes()).hexdigest(),
    }
    ckpt.write_text(ckpt.read_text().replace('"format_version": 2', '"format_version": 1'))
    proc = subprocess.run(script, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1 and "format_version 1" in proc.stderr
