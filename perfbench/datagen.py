"""Seeded kline CSV generators for the benchmark workloads.

The program under test only ever sees the CSV these functions write, in the
layout ``drltrade.market_data.load_klines_csv`` reads: a header row, then
``open_time,open,high,low,close,volume`` with every float written as the
``repr`` of a plain Python float (numpy scalar reprs such as
``np.float64(1.5)`` would be rejected by the loader).
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

CSV_HEADER = "open_time,open,high,low,close,volume"
START_TIME_MS = 1609459200000  # 2021-01-01T00:00:00Z
DROP_FRACTION = 0.002  # share of a random walk's interior rows left out


def _check_bars(opens, highs, lows, closes, volumes) -> None:
    """Refuse to write a bar the loader would reject."""
    prices = np.stack([opens, highs, lows, closes])
    if not np.all(np.isfinite(prices)) or not np.all(prices > 0.0):
        raise ValueError("generated a non-positive or non-finite price")
    if not np.all(np.isfinite(volumes)) or not np.all(volumes >= 0.0):
        raise ValueError("generated a negative or non-finite volume")
    if np.any(lows > np.minimum(opens, closes)) or np.any(np.maximum(opens, closes) > highs):
        raise ValueError("generated a bar breaking low <= open/close <= high")


def _write_csv(path: Path, open_times, opens, highs, lows, closes, volumes) -> str:
    """Write the rows and return the file's sha256."""
    _check_bars(opens, highs, lows, closes, volumes)
    columns = [np.asarray(c, dtype=np.float64).tolist()
               for c in (opens, highs, lows, closes, volumes)]
    lines = [CSV_HEADER]
    for t, row in zip(np.asarray(open_times, dtype=np.int64).tolist(), zip(*columns)):
        lines.append(f"{t}," + ",".join(repr(v) for v in row))
    data = ("\n".join(lines) + "\n").encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def write_sine_csv(path: Path, seed: int, n_bars: int, interval_ms: int) -> dict:
    """The acceptance sine market (base 100, amplitude 0.1, period 40 bars) at a
    seed-chosen phase; opens chain the previous close."""
    period = 40
    phase = np.random.default_rng(seed).uniform(0.0, period)
    t = np.arange(n_bars)
    closes = 100.0 * (1.0 + 0.1 * np.sin(2.0 * np.pi * (t + phase) / period))
    opens = np.concatenate([closes[:1], closes[:-1]])
    digest = _write_csv(
        path,
        START_TIME_MS + t * interval_ms,
        opens,
        np.maximum(opens, closes),
        np.minimum(opens, closes),
        closes,
        np.full(n_bars, 1000.0),
    )
    return {"sha256": digest, "bars": n_bars, "dropped_rows": 0, "phase": float(phase)}


def write_random_walk_csv(path: Path, seed: int, n_bars: int, interval_ms: int) -> dict:
    """Geometric random walk with interior rows dropped, so the loader fills gaps.

    The first and last rows are always kept, so the filled series has exactly
    ``n_bars`` bars and ``dropped_rows`` of them are gap-filled.
    """
    rng = np.random.default_rng(seed)
    log_returns = rng.normal(0.0, 1e-3, size=n_bars)
    closes = 100.0 * np.exp(np.cumsum(log_returns))
    opens = np.concatenate([[100.0], closes[:-1]])
    highs = np.maximum(opens, closes) * (1.0 + np.abs(rng.normal(0.0, 5e-4, size=n_bars)))
    lows = np.minimum(opens, closes) * (1.0 - np.abs(rng.normal(0.0, 5e-4, size=n_bars)))
    volumes = rng.lognormal(3.0, 1.0, size=n_bars)
    n_drop = int(round(DROP_FRACTION * n_bars))
    dropped = rng.choice(np.arange(1, n_bars - 1), size=n_drop, replace=False)
    keep = np.ones(n_bars, dtype=bool)
    keep[dropped] = False
    open_times = START_TIME_MS + np.arange(n_bars) * interval_ms
    digest = _write_csv(
        path, open_times[keep], opens[keep], highs[keep], lows[keep], closes[keep], volumes[keep]
    )
    return {"sha256": digest, "bars": n_bars, "dropped_rows": n_drop}
