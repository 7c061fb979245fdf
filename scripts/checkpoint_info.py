#!/usr/bin/env python3
"""Print what a checkpoint holds: its header and a summary of each network.

For every network entry (one with ``sizes`` and a base64 ``theta``) it prints
the sizes, the parameter count, whether every value is finite, the minimum and
maximum, and the sha256 of the decoded ``theta`` bytes.

Usage, from the root of the repository:

    PYTHONPATH=src python3 scripts/checkpoint_info.py runs/latest/checkpoints/ppo.json

Exit codes: 0 printed, 1 a file that is not a checkpoint this version reads,
2 bad arguments.
"""

from __future__ import annotations

import base64
import hashlib
import json
import sys

import numpy as np

from drltrade.neural import load_checkpoint


def describe(path) -> list[str]:
    doc = load_checkpoint(path)
    lines = [f"{key}\t{json.dumps(doc.get(key), sort_keys=True)}"
             for key in ("format_version", "kind", "train_data")]
    for name, entry in sorted(doc.items()):
        if not (isinstance(entry, dict) and "theta" in entry):
            continue
        raw = base64.b64decode(entry["theta"], validate=True)
        theta = np.frombuffer(raw, dtype="<f8")
        lines.append(f"{name}\tsizes {entry['sizes']}\tparams {theta.size}\t"
                     f"finite {bool(np.isfinite(theta).all())}\t"
                     f"min {theta.min(initial=np.inf)}\tmax {theta.max(initial=-np.inf)}\t"
                     f"sha256 {hashlib.sha256(raw).hexdigest()}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: checkpoint_info.py <checkpoint.json>", file=sys.stderr)
        return 2
    try:
        print("\n".join(describe(args[0])))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
