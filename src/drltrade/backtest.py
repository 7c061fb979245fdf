"""Frozen-policy evaluation on held-out bars with trade-annotated output.

The policy acts deterministically (tanh of the mean network). At the final
bar the entire remaining position is sold at the close, with the standard fee,
and that sale counts as a trade when any units were held. The report mirrors
the account ledger exactly: end value is the final cash balance, total cost is
the fee accumulator.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from datetime import date, datetime, timezone

from .domains import Natural, NonNegative, Positive, check
from .env import TradeInfo, TradingEnv, gross_value
from .errors import ZeroBegin
from .market_data import write_csv
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


def make_report(
    begin_value: Positive, end_value: NonNegative, total_cost: NonNegative,
    total_trades: Natural, start_date: date, end_date: date,
) -> BacktestReport:
    if begin_value == 0:
        raise ZeroBegin("begin value is zero, profit ratio undefined")
    return BacktestReport(
        begin_value, end_value, total_cost, total_trades, start_date, end_date,
        span_days=check(Natural, (end_date - start_date).days, "span_days"),
        profit_ratio=end_value / begin_value,
    )


def bar_date(open_time_ms: int) -> date:
    return datetime.fromtimestamp(open_time_ms // 1000, tz=timezone.utc).date()


def marker(units: float) -> str:
    """A trade's annotation: buy, sell or hold by the sign of its executed units."""
    return "buy" if units > 0.0 else "sell" if units < 0.0 else "hold"


def run_backtest(
    policy: GaussianPolicy, env: TradingEnv
) -> tuple[BacktestReport, list[TradeInfo]]:
    """Deterministic rollout over every test bar, then forced liquidation.

    The ledger is the ``TradeInfo`` of each bar of ``env.episode``, in order.
    """
    obs = env.reset()
    ledger = []
    while not env.done:
        result = env.step(policy.mean_action(obs[None, :])[0])
        ledger.append(result.info)
        obs = result.observation
    ledger.append(env.liquidate())
    report = make_report(
        begin_value=env.config.initial_balance,
        end_value=env.cash,
        total_cost=env.total_cost,
        total_trades=env.trade_count,
        start_date=bar_date(int(env.series.open_times[env.episode.start])),
        end_date=bar_date(int(env.series.open_times[env.t])),
    )
    return report, ledger


ANNOTATED_HEADER = ["timestamp", "price", "gross_value", "marker", "executed_units"]


def export_annotated_series(ledger: list[TradeInfo], open_times, path) -> None:
    """One CSV row per ledger entry, stamped with the open time of its bar;
    the gross value is the account right after the trade, at its price."""
    if not ledger:
        raise ValueError("refusing to export an empty annotated series")
    if len(open_times) != len(ledger):
        raise ValueError(f"{len(ledger)} ledger rows but {len(open_times)} open times")
    write_csv(
        path,
        ANNOTATED_HEADER,
        ((int(t), info.price, gross_value(info.cash, info.asset_units, info.price),
          marker(info.executed_units), info.executed_units)
         for t, info in zip(open_times, ledger)),
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
    write_json(path, {**asdict(report), "start_date": report.start_date.isoformat(),
                      "end_date": report.end_date.isoformat()})
