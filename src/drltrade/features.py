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

import math
from dataclasses import dataclass

import numpy as np

from . import indicators
from .domains import Checked, Count, Names, NonNegative
from .errors import (
    ColumnMismatch,
    InvariantViolation,
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

_PRICE_FIELDS = dict(open="opens", high="highs", low="lows", close="closes", volume="volumes")

# Indicator column -> (name of its ``indicators`` function, its place in the
# triple that function returns or None, the series field it reads or None for
# the whole series, its parameters). A column whose parameters are _PERIOD ends
# in that period (``rsi14``); the others name FeatureConfig fields. The function
# is looked up by name when it is called.
_PERIOD = "period"
_BANDS = ("bollinger_n", "bollinger_m")
_INDICATOR_COLUMNS = {
    "sma": ("sma", None, "closes", _PERIOD), "ema": ("ema", None, "closes", _PERIOD),
    "cci": ("cci", None, None, _PERIOD), "rsi": ("rsi", None, None, _PERIOD),
    "atr": ("atr", None, None, _PERIOD), "di_plus": ("dmi", 0, None, _PERIOD),
    "di_minus": ("dmi", 1, None, _PERIOD), "dx": ("dmi", 2, None, _PERIOD),
    "macd": ("macd", None, None, ()), "boll_mid": ("bollinger", 0, None, _BANDS),
    "boll_upper": ("bollinger", 1, None, _BANDS), "boll_lower": ("bollinger", 2, None, _BANDS),
}


@dataclass(frozen=True)
class FeatureConfig(Checked):
    window: Count = 60
    columns: Names = DEFAULT_COLUMNS
    bollinger_n: Count = 20
    bollinger_m: NonNegative = 2.0


@dataclass
class FeatureMatrix:
    """Bar-aligned feature rows; rows before ``valid_from`` contain NaN, later rows are finite."""

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
                   calls: dict) -> np.ndarray:
    """One named column; ``calls`` keeps this build's indicator results, so a
    triple's three columns share one call."""
    if name in _PRICE_FIELDS:
        return getattr(series, _PRICE_FIELDS[name])
    if name == "return":
        closes = series.closes
        ret = np.zeros(len(closes))
        ret[1:] = closes[1:] / closes[:-1] - 1.0
        return ret
    kind = name.rstrip("0123456789")
    period = name[len(kind):]
    if kind not in _INDICATOR_COLUMNS or (_INDICATOR_COLUMNS[kind][3] == _PERIOD) != bool(period):
        raise ValueError(f"unknown feature column {name!r}")
    fn, member, field, params = _INDICATOR_COLUMNS[kind]
    if (fn, period) not in calls:
        source = getattr(series, field) if field else series
        args = (int(period),) if period else tuple(getattr(config, p) for p in params)
        calls[fn, period] = getattr(indicators, fn)(source, *args)
    result = calls[fn, period]
    return result if member is None else result[member]


def build_feature_matrix(series: KlineSeries, config: FeatureConfig = FeatureConfig()) -> FeatureMatrix:
    """Compute all configured columns; valid_from is the longest warm-up.

    A column's warm-up is its leading run of NaN. A value that is not finite
    from valid_from on is refused: it would reach the normalizer and every
    observation window over it. A column that is NaN on every bar is refused
    by name when computing the columns overflowed (prices near the float
    limit), and as a series too short for its warm-up otherwise.
    """
    n = len(series)
    calls: dict = {}
    cols = []
    overflows = []
    for name in config.columns:
        try:
            # prices near the float limit overflow here; the checks below refuse
            with np.errstate(all="ignore", over="call", call=lambda *_: overflows.append(1)):
                cols.append(_column_series(series, name, config, calls))
        except TooShort as exc:
            raise TooShort(f"series too short for column {name!r}: {exc}") from exc
    # A column's NaN count is at least its NaN prefix, so valid_from is at
    # least every column's warm-up; every row from valid_from on is then
    # checked to be finite.
    nan_counts = [int(np.count_nonzero(np.isnan(col))) for col in cols]
    valid_from = max(nan_counts)
    if valid_from >= n:
        if overflows:
            raise InvariantViolation(
                f"column {config.columns[nan_counts.index(n)]!r} is NaN on all {n} bars: "
                f"computing the features overflowed, the prices are too large"
            )
        raise TooShort(
            f"series of {n} bars never clears the largest warm-up ({valid_from})"
        )
    rows = np.column_stack(cols)
    if not np.isfinite(rows[valid_from:]).all():
        bar, col = np.argwhere(~np.isfinite(rows[valid_from:]))[0]
        raise InvariantViolation(
            f"column {config.columns[col]!r} is not finite at bar {valid_from + bar}, "
            f"past the warm-up"
        )
    return FeatureMatrix(column_names=tuple(config.columns), rows=rows, valid_from=valid_from)


def fit_normalizer(matrix: FeatureMatrix, rows: range) -> Normalizer:
    """Per-column mean/std (population) over the given rows, training rows only.

    A column whose mean or spread overflows there is refused: every row of it
    would standardize to 0 or NaN.
    """
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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        means = block.mean(axis=0)
        stds = block.std(axis=0)
    bad = ~(np.isfinite(means) & np.isfinite(stds))
    if bad.any():
        raise InvariantViolation(
            f"column {matrix.column_names[np.argmax(bad)]!r} has a non-finite mean or spread "
            f"over rows {start}:{stop}: its values are too large to standardize"
        )
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


def normalizer_to_json(normalizer: Normalizer) -> dict:
    return {
        "column_names": list(normalizer.column_names),
        "means": normalizer.means.tolist(),
        "stds": normalizer.stds.tolist(),
        "fitted_on": list(normalizer.fitted_on),
    }


def normalizer_from_json(payload: dict) -> Normalizer:
    """The normalizer ``normalizer_to_json`` wrote; ValueError for one it could not have.

    ``normalize`` would broadcast a short ``means`` and read a NaN spread as 1,
    so each of ``means`` and ``stds`` must hold one finite float per column.
    """
    names = tuple(payload["column_names"])
    means, stds, fitted_on = payload["means"], payload["stds"], payload["fitted_on"]
    for key, values in (("means", means), ("stds", stds)):
        if not (type(values) is list and len(values) == len(names)
                and all(type(v) is float and math.isfinite(v) for v in values)):
            raise ValueError(f"{key} must hold one finite float per column")
    if min(stds, default=0.0) < 0.0:
        raise ValueError("stds must not be negative")
    if not (type(fitted_on) is list and len(fitted_on) == 2
            and all(type(row) is int for row in fitted_on)):
        raise ValueError(f"fitted_on must be two ints, got {fitted_on!r}")
    return Normalizer(column_names=names, means=np.array(means), stds=np.array(stds),
                      fitted_on=tuple(fitted_on))
