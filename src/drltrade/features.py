"""Per-bar feature assembly, train-set standardization, observation vectors.

The default feature set is OHLCV, the one-bar return, and the indicator suite
(CCI 14/30, RSI 14/30, DI+/DI-/DX 14, ATR 14, MACD, Bollinger mid/upper/lower):
18 columns. With the default 60-bar window the observation is
``2 + 60 * 18 = 1082`` entries: scaled cash, scaled asset value, then the
flattened normalized window in chronological order.

Normalization statistics are always fitted on training rows only and applied
unchanged to test rows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from . import indicators
from .errors import (
    ColumnMismatch,
    RangeTooSmall,
    RangeTouchesWarmup,
    TooShort,
    WindowUnderflow,
)
from .market_data import KlineSeries

DEFAULT_COLUMNS = (
    "open", "high", "low", "close", "volume", "return",
    "cci14", "cci30", "rsi14", "rsi30",
    "di_plus14", "di_minus14", "dx14", "atr14",
    "macd", "boll_mid", "boll_upper", "boll_lower",
)

_PARAM_COLUMN = re.compile(r"^(sma|ema|cci|rsi|atr|di_plus|di_minus|dx)(\d+)$")


@dataclass(frozen=True)
class FeatureConfig:
    window: int = 60
    columns: tuple[str, ...] = DEFAULT_COLUMNS
    bollinger_n: int = 20
    bollinger_m: float = 2.0

    @property
    def n_features(self) -> int:
        return len(self.columns)

    @property
    def observation_dim(self) -> int:
        return 2 + self.window * self.n_features


@dataclass
class FeatureMatrix:
    """Bar-aligned feature rows; rows before ``valid_from`` contain NaN."""

    column_names: tuple[str, ...]
    rows: np.ndarray  # (n_bars, n_features)
    valid_from: int

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class Normalizer:
    """Per-column standardization statistics fitted on a stated row range."""

    column_names: tuple[str, ...]
    means: np.ndarray
    stds: np.ndarray
    fitted_on: tuple[int, int]


def _column_series(series: KlineSeries, name: str, config: FeatureConfig,
                   cache: dict) -> tuple[np.ndarray, int]:
    """Return (values, warmup_len) for one named column."""
    closes = series.closes
    if name == "open":
        return series.opens, 0
    if name == "high":
        return series.highs, 0
    if name == "low":
        return series.lows, 0
    if name == "close":
        return closes, 0
    if name == "volume":
        return series.volumes, 0
    if name == "return":
        ret = np.zeros(len(closes))
        ret[1:] = closes[1:] / closes[:-1] - 1.0
        return ret, 0
    if name == "macd":
        ind = indicators.macd(series)
        return ind.values, ind.warmup_len
    if name in ("boll_mid", "boll_upper", "boll_lower"):
        if "bollinger" not in cache:
            cache["bollinger"] = indicators.bollinger(series, config.bollinger_n, config.bollinger_m)
        mid, upper, lower = cache["bollinger"]
        ind = {"boll_mid": mid, "boll_upper": upper, "boll_lower": lower}[name]
        return ind.values, ind.warmup_len
    match = _PARAM_COLUMN.match(name)
    if match:
        kind, period = match.group(1), int(match.group(2))
        if kind == "sma":
            ind = indicators.sma(closes, period)
        elif kind == "ema":
            ind = indicators.ema(closes, period)
        elif kind == "cci":
            ind = indicators.cci(series, period)
        elif kind == "rsi":
            ind = indicators.rsi(series, period)
        elif kind == "atr":
            ind = indicators.atr(series, period)
        else:  # di_plus / di_minus / dx share one dmi evaluation
            key = f"dmi{period}"
            if key not in cache:
                cache[key] = indicators.dmi(series, period)
            plus, minus, dx = cache[key]
            ind = {"di_plus": plus, "di_minus": minus, "dx": dx}[kind]
        return ind.values, ind.warmup_len
    raise ValueError(f"unknown feature column {name!r}")


def build_feature_matrix(series: KlineSeries, config: FeatureConfig = FeatureConfig()) -> FeatureMatrix:
    """Compute all configured columns; valid_from is the largest warm-up."""
    n = len(series)
    cache: dict = {}
    cols = []
    valid_from = 0
    for name in config.columns:
        try:
            values, warmup = _column_series(series, name, config, cache)
        except TooShort as exc:
            raise TooShort(f"series too short for column {name!r}: {exc}") from exc
        cols.append(values)
        valid_from = max(valid_from, warmup)
    if valid_from >= n:
        raise TooShort(
            f"series of {n} bars never clears the largest warm-up ({valid_from})"
        )
    rows = np.column_stack(cols)
    return FeatureMatrix(column_names=tuple(config.columns), rows=rows, valid_from=valid_from)


def fit_normalizer(matrix: FeatureMatrix, rows: range) -> Normalizer:
    """Per-column mean/std (population) over the given rows, training rows only."""
    start, stop = rows.start, rows.stop
    if stop - start < 2:
        raise RangeTooSmall(f"need at least 2 rows to fit, got range {start}:{stop}")
    if start < matrix.valid_from:
        raise RangeTouchesWarmup(
            f"fit range starts at {start}, before valid_from {matrix.valid_from}"
        )
    if stop > len(matrix):
        raise ValueError(f"fit range {start}:{stop} exceeds matrix length {len(matrix)}")
    block = matrix.rows[start:stop]
    means = block.mean(axis=0)
    stds = block.std(axis=0)
    return Normalizer(
        column_names=matrix.column_names,
        means=means,
        stds=stds,
        fitted_on=(start, stop),
    )


def normalize(matrix: FeatureMatrix, normalizer: Normalizer) -> FeatureMatrix:
    """(x - mean) / std per column; zero-std columns map to zero."""
    if matrix.column_names != normalizer.column_names:
        raise ColumnMismatch(
            f"matrix columns {matrix.column_names} != normalizer columns "
            f"{normalizer.column_names}"
        )
    safe = np.where(normalizer.stds > 0.0, normalizer.stds, 1.0)
    scaled = (matrix.rows - normalizer.means) / safe
    scaled[:, normalizer.stds == 0.0] = 0.0
    return FeatureMatrix(
        column_names=matrix.column_names, rows=scaled, valid_from=matrix.valid_from
    )


def assemble_observation(
    norm_matrix: FeatureMatrix,
    t: int,
    cash: float,
    asset_units: float,
    price: float,
    window: int,
    initial_balance: float,
) -> np.ndarray:
    """[cash scale, asset-value scale, rows t-window+1..t flattened row-major]."""
    first = t - window + 1
    if first < norm_matrix.valid_from:
        raise WindowUnderflow(
            f"window of {window} ending at t={t} reaches row {first}, "
            f"before valid_from {norm_matrix.valid_from}"
        )
    if t >= len(norm_matrix):
        raise WindowUnderflow(f"t={t} beyond matrix length {len(norm_matrix)}")
    block = norm_matrix.rows[first:t + 1]
    out = np.empty(2 + window * norm_matrix.rows.shape[1])
    out[0] = cash / initial_balance
    out[1] = asset_units * price / initial_balance
    out[2:] = block.reshape(-1)
    return out


def feature_config_to_json(config: FeatureConfig) -> dict:
    return {
        "window": config.window,
        "columns": list(config.columns),
        "bollinger_n": config.bollinger_n,
        "bollinger_m": config.bollinger_m,
    }


def feature_config_from_json(payload: dict) -> FeatureConfig:
    return FeatureConfig(
        window=payload["window"],
        columns=tuple(payload["columns"]),
        bollinger_n=payload["bollinger_n"],
        bollinger_m=payload["bollinger_m"],
    )


def normalizer_to_json(normalizer: Normalizer) -> dict:
    return {
        "column_names": list(normalizer.column_names),
        "means": normalizer.means.tolist(),
        "stds": normalizer.stds.tolist(),
        "fitted_on": list(normalizer.fitted_on),
    }


def normalizer_from_json(payload: dict) -> Normalizer:
    return Normalizer(
        column_names=tuple(payload["column_names"]),
        means=np.array(payload["means"], dtype=float),
        stds=np.array(payload["stds"], dtype=float),
        fitted_on=tuple(payload["fitted_on"]),
    )
