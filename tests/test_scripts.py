"""The scripts under ``scripts/`` run end to end."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

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
