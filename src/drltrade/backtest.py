"""Frozen-policy evaluation on held-out bars with trade-annotated output.

The policy acts deterministically (tanh of the mean network). At the final
bar the entire remaining position is sold at the close, with the standard fee,
and that sale counts as a trade when any units were held. The report mirrors
the account ledger exactly: end value is the final cash balance, total cost is
the fee accumulator.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date, datetime, timezone

import numpy as np

from .env import TradingEnv, gross_value
from .errors import ZeroBegin
from .neural import GaussianPolicy, write_json


@dataclass(frozen=True)
class BacktestReport:
    begin_value: float
    end_value: float
    total_cost: float
    total_trades: int
    start_date: date
    end_date: date
    span_days: int
    profit_ratio: float


@dataclass
class AnnotatedRow:
    timestamp: int  # bar open time, ms since epoch
    price: float
    gross_value: float
    marker: str  # buy | sell | hold
    executed_units: float


def make_report(
    begin_value, end_value, total_cost, total_trades,
    start_date: date, end_date: date,
) -> BacktestReport:
    if begin_value == 0:
        raise ZeroBegin("begin value is zero, profit ratio undefined")
    return BacktestReport(
        begin_value=begin_value,
        end_value=end_value,
        total_cost=total_cost,
        total_trades=total_trades,
        start_date=start_date,
        end_date=end_date,
        span_days=(end_date - start_date).days,
        profit_ratio=end_value / begin_value,
    )


def bar_date(open_time_ms: int) -> date:
    return datetime.fromtimestamp(open_time_ms // 1000, tz=timezone.utc).date()


def _marker(executed_units: float) -> str:
    if executed_units > 0.0:
        return "buy"
    if executed_units < 0.0:
        return "sell"
    return "hold"


def run_backtest(
    policy: GaussianPolicy, env: TradingEnv
) -> tuple[BacktestReport, list[AnnotatedRow]]:
    """Deterministic rollout over every test bar, then forced liquidation."""
    obs = env.reset()
    closes = env.series.closes
    open_times = env.series.open_times
    rows: list[AnnotatedRow] = []
    done = False
    while not done:
        t = env.t
        action = policy.mean_action(obs[None, :])[0]
        result = env.step(action)
        rows.append(
            AnnotatedRow(
                timestamp=int(open_times[t]),
                price=float(closes[t]),
                gross_value=gross_value(env.cash, env.asset_units, float(closes[t])),
                marker=_marker(result.info.executed_units),
                executed_units=float(result.info.executed_units),
            )
        )
        obs = result.observation
        done = result.done
    final_t = env.t
    info = env.liquidate()
    rows.append(
        AnnotatedRow(
            timestamp=int(open_times[final_t]),
            price=info.price,
            gross_value=env.cash,
            marker=_marker(info.executed_units),
            executed_units=float(info.executed_units),
        )
    )
    report = make_report(
        begin_value=env.config.initial_balance,
        end_value=env.cash,
        total_cost=env.total_cost,
        total_trades=env.trade_count,
        start_date=bar_date(int(open_times[env.episode.start])),
        end_date=bar_date(int(open_times[final_t])),
    )
    return report, rows


ANNOTATED_HEADER = ["timestamp", "price", "gross_value", "marker", "executed_units"]


def export_annotated_series(rows: list[AnnotatedRow], path) -> None:
    if not rows:
        raise ValueError("refusing to export an empty annotated series")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ANNOTATED_HEADER)
        for row in rows:
            writer.writerow(
                [
                    row.timestamp,
                    repr(row.price),
                    repr(row.gross_value),
                    row.marker,
                    repr(row.executed_units),
                ]
            )


def evaluate_profit_metrics(report: BacktestReport) -> dict:
    if report.begin_value == 0:
        raise ZeroBegin("begin value is zero, profit ratio undefined")
    return {
        "profit_ratio": report.end_value / report.begin_value,
        "net_profit": report.end_value - report.begin_value,
        "cost_share": report.total_cost / report.begin_value,
    }


def render_report(report: BacktestReport) -> str:
    """The five labeled fields, tab-separated, one per line."""
    span = (
        f"{report.start_date.isoformat()}/{report.end_date.isoformat()} "
        f"({report.span_days} Days)"
    )
    lines = [
        f"Begin Account Value\t{report.begin_value}",
        f"End Account Value\t{report.end_value}",
        f"Total Cost\t{report.total_cost}",
        f"Total Trades\t{report.total_trades}",
        f"Start Date/End Date\t{span}",
    ]
    return "\n".join(lines)


def save_report_json(report: BacktestReport, path) -> None:
    doc = {
        "begin_value": report.begin_value,
        "end_value": report.end_value,
        "total_cost": report.total_cost,
        "total_trades": report.total_trades,
        "start_date": report.start_date.isoformat(),
        "end_date": report.end_date.isoformat(),
        "span_days": report.span_days,
        "profit_ratio": report.profit_ratio,
    }
    write_json(path, doc)
