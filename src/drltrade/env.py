"""Fee-aware single-asset trading environment over a kline series.

One step: trade at the close of bar ``t``, then advance to bar ``t+1``.
Actions are continuous in [-1, 1] and scale ``max_buy_amount`` into a desired
trade size in asset units (positive buys, negative sells). Orders are clamped
to what cash or inventory allows, a flat fee rate applies to the traded
notional, and the reward is the change in gross account value scaled by
``reward_scale`` plus a fixed penalty whenever the order was clamped.

With zero fees and zero penalty the rewards telescope: their sum divided by
``reward_scale`` equals the total change in gross value over the episode.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Annotated

import numpy as np

from .domains import Checked, Count, Interval, Positive
from .errors import NonPositivePrice, SteppedAfterDone, WindowUnderflow
from .features import FeatureMatrix, assemble_observation
from .market_data import KlineSeries

# Executions within this many units of the desired size do not count as clamps.
CLAMP_TOLERANCE = 1e-12


@dataclass(frozen=True)
class EnvConfig(Checked):
    """Account and reward settings.

    ``max_buy_amount`` is the order size, in asset units, of action 1.0. None
    means ``initial_balance / closes[0]``, with ``closes[0]`` the first bar of
    the whole series, not of the episode: the test split sizes its orders by
    that price too, so in a rising market a full-size buy there is clamped.
    """

    initial_balance: Positive = 10_000.0
    max_buy_amount: Positive | None = None
    fee_rate: Annotated[float, Interval(0, 1)] = 0.0075
    reward_scale: Positive = 1e-4
    violation_penalty: Annotated[float, Interval(-inf, 0, "(]")] = -0.01
    window: Count = 60


@dataclass
class TradeInfo:
    """Outcome of one order execution and the account right after it."""

    desired_units: float
    executed_units: float  # signed: positive bought, negative sold
    fee: float
    clamped: bool
    price: float
    cash: float
    asset_units: float


@dataclass
class StepResult:
    observation: np.ndarray
    reward: float
    done: bool
    info: TradeInfo


def gross_value(cash: float, asset_units: float, price: float) -> float:
    return cash + asset_units * price


def execute_trade(
    cash: float,
    asset_units: float,
    price: float,
    desired_units: float,
    fee_rate: float,
) -> TradeInfo:
    """Apply one clamped order; the info holds the account after it."""
    if price <= 0.0:
        raise NonPositivePrice(f"price {price} must be positive")
    if desired_units > 0.0:
        affordable = cash / (price * (1.0 + fee_rate))
        executed = min(desired_units, affordable)
        cost = executed * price * (1.0 + fee_rate)
        new_cash = max(0.0, cash - cost)  # guard ulp-level negatives at full spend
        new_asset = asset_units + executed
        fee = executed * price * fee_rate
    elif desired_units < 0.0:
        executed = min(-desired_units, asset_units)
        new_cash = cash + executed * price * (1.0 - fee_rate)
        new_asset = asset_units - executed
        fee = executed * price * fee_rate
        executed = -executed
    else:
        executed = 0.0
        new_cash, new_asset, fee = cash, asset_units, 0.0
    clamped = abs(executed) < abs(desired_units) - CLAMP_TOLERANCE
    return TradeInfo(
        desired_units=desired_units,
        executed_units=executed,
        fee=fee,
        clamped=clamped,
        price=price,
        cash=new_cash,
        asset_units=new_asset,
    )


class TradingEnv:
    """Steps through bar indices of a series, one trade per bar."""

    def __init__(
        self,
        series: KlineSeries,
        norm_matrix: FeatureMatrix,
        config: EnvConfig = EnvConfig(),
        episode: range | None = None,
    ):
        if len(series) != len(norm_matrix):
            raise ValueError(
                f"series has {len(series)} bars but matrix has {len(norm_matrix)} rows"
            )
        bad = np.flatnonzero(series.closes <= 0.0)
        if bad.size:
            raise NonPositivePrice(f"non-positive close at bar {bad[0]}")
        self.series = series
        self.matrix = norm_matrix
        self.config = config
        first_t = norm_matrix.valid_from + config.window - 1
        if episode is None:
            if first_t > len(series) - 2:
                raise WindowUnderflow(
                    f"series of {len(series)} bars cannot host a {config.window}-bar "
                    f"window past warm-up row {norm_matrix.valid_from}"
                )
            episode = range(first_t, len(series))
        if episode.start < first_t:
            raise WindowUnderflow(
                f"episode starts at {episode.start}, first full window is at {first_t}"
            )
        if episode.stop > len(series):
            raise ValueError(f"episode ends at {episode.stop}, series has {len(series)} bars")
        if len(episode) < 2:
            raise ValueError(f"episode {episode.start}:{episode.stop} needs at least 2 bars "
                             "(one tradable step)")
        self.episode = episode
        self.max_buy_amount = float(
            config.max_buy_amount
            if config.max_buy_amount is not None
            else config.initial_balance / series.closes[0]
        )
        self.reset()

    @property
    def observation_dim(self) -> int:
        return 2 + self.config.window * self.matrix.rows.shape[1]

    @property
    def action_dim(self) -> int:
        return 1

    def observe(self) -> np.ndarray:
        """Observation for the current bar and account state."""
        return assemble_observation(
            self.matrix,
            self.t,
            self.cash,
            self.asset_units,
            self.series.closes[self.t],
            self.config.window,
            self.config.initial_balance,
        )

    def reset(self) -> np.ndarray:
        self.t = self.episode.start
        self.cash = self.config.initial_balance
        self.asset_units = 0.0
        self.trade_count = 0
        self.total_cost = 0.0
        self.last_gross_value = self.config.initial_balance
        self.done = False
        return self.observe()

    def step(self, action) -> StepResult:
        if self.done:
            raise SteppedAfterDone(f"episode finished at t={self.t}")
        # In this argument order, min/max give np.clip's value for +-inf, -0.0
        # and NaN, at a fraction of its dispatch cost.
        a = min(max(float(np.asarray(action).reshape(-1)[0]), -1.0), 1.0)
        price = float(self.series.closes[self.t])
        info = self._trade(price, a * self.max_buy_amount)
        self.t += 1
        next_price = float(self.series.closes[self.t])
        gv = gross_value(self.cash, self.asset_units, next_price)
        reward = (gv - self.last_gross_value) * self.config.reward_scale
        if info.clamped:
            reward += self.config.violation_penalty
        self.last_gross_value = gv
        self.done = self.t == self.episode.stop - 1
        return StepResult(self.observe(), reward, self.done, info)

    def liquidate(self) -> TradeInfo:
        """Sell every held unit at the current close with the standard fee.

        The sale counts as a trade and its fee as cost, as in ``step``, but
        time does not advance and no reward is paid. Flat, it is a no-op.
        """
        return self._trade(float(self.series.closes[self.t]), -self.asset_units)

    def _trade(self, price: float, desired: float) -> TradeInfo:
        """Execute one trade, counting it when units moved and booking its fee."""
        info = execute_trade(self.cash, self.asset_units, price, desired, self.config.fee_rate)
        self.cash, self.asset_units = info.cash, info.asset_units
        if info.executed_units != 0.0:
            self.trade_count += 1
        self.total_cost += info.fee
        return info
