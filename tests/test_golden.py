"""Golden-digest lock: small CLI runs must reproduce stored artifact bytes.

Criterion 11 compares two runs of the same code, so a change that alters the
numbers would pass it unnoticed. This test pins the sha256 of every artifact
a short PPO, SAC and GAIL train + backtest writes. A change that moves a
digest on purpose regenerates ``golden.json`` with ``--regen`` and says why.

``config_resolved.json`` is left out: it embeds the absolute ``out`` path.

    PYTHONPATH=src python tests/test_golden.py --regen
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from drltrade import cli

GOLDEN_PATH = Path(__file__).with_name("golden.json")

GOLDEN_RUN = {
    "symbol": "SINE",
    "interval": "4h",
    "data": {"synthetic": {"n_bars": 120, "amplitude": 0.1, "period": 40}},
    "split_fraction": 0.8,
    "seed": 0,
    "features": {"window": 4, "columns": ["close", "return"]},
    "env": {"window": 4},
    "ppo": {"total_timesteps": 512, "n_steps": 32, "hidden": [64, 64]},
    "sac": {
        "total_timesteps": 48,
        "buffer_size": 64,
        "batch_size": 32,
        "learning_starts": 16,
        "log_every": 16,
        "hidden": [64, 64],
    },
    # A wide KL budget without the entropy bonus makes the second TRPO step
    # backtrack to a quarter step, so the line search is covered too.
    "gail": {
        "total_timesteps": 128,
        "horizon": 32,
        "n_expert_episodes": 2,
        "max_kl": 5.0,
        "entropy_weight": 0.0,
        "hidden": [64, 64],
    },
}

# GAIL runs last so it reuses the PPO checkpoint as its expert.
ALGOS = ("ppo", "sac", "gail")
DIGESTED = ("checkpoints/*", "logs/*_train.csv", "reports/*", "data/expert.csv")


def run_digests(out: Path) -> dict:
    cfg = out.parent / "golden_config.json"
    cfg.write_text(json.dumps({**GOLDEN_RUN, "out": str(out)}))
    for algo in ALGOS:
        assert cli.main(["--config", str(cfg), "train", "--algo", algo]) == 0
        assert cli.main(["--config", str(cfg), "backtest", "--algo", algo]) == 0
    paths = sorted({p for pattern in DIGESTED for p in out.glob(pattern)})
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in paths
    }


def test_artifact_digests_match_golden(tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text())
    got = run_digests(tmp_path / "run")
    assert sorted(got) == sorted(golden)
    changed = [rel for rel in golden if got[rel] != golden[rel]]
    assert not changed, f"artifact bytes changed: {changed}"


if __name__ == "__main__" and "--regen" in sys.argv:
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_digests(Path(tmp) / "run")
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
