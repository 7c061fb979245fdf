"""Backtest ledger, forced liquidation, and the five-line report format."""

from collections import Counter
from datetime import date

import numpy as np
import pytest

import oracles
from drltrade.backtest import (
    ANNOTATED_HEADER,
    bar_date,
    evaluate_profit_metrics,
    export_annotated_series,
    make_report,
    marker,
    render_report,
    run_backtest,
    save_report_json,
)
from drltrade.env import EnvConfig, TradingEnv, gross_value
from drltrade.errors import ZeroBegin
from drltrade.features import FeatureConfig, build_feature_matrix, fit_normalizer, normalize
from drltrade.market_data import FOUR_HOURS_MS, KlineSeries

FEB_24_2021_MS = 1_614_124_800_000


def price_series(closes, start_time=FEB_24_2021_MS):
    closes = np.asarray(closes, dtype=np.float64)
    opens = np.concatenate((closes[:1], closes[:-1]))
    return KlineSeries(
        "FIX",
        FOUR_HOURS_MS,
        open_times=start_time + FOUR_HOURS_MS * np.arange(len(closes)),
        opens=opens,
        highs=np.maximum(opens, closes),
        lows=np.minimum(opens, closes),
        closes=closes,
        volumes=np.full(len(closes), 10.0),
    )


def build_env(closes, **config_overrides):
    series = price_series(closes)
    feature_config = FeatureConfig(window=2, columns=("close", "return"))
    matrix = build_feature_matrix(series, feature_config)
    norm = normalize(matrix, fit_normalizer(matrix, range(matrix.valid_from, len(series))))
    config = EnvConfig(window=2, **config_overrides)
    return TradingEnv(series, norm, config, range(2, len(series)))


class ScriptedPolicy:
    """Replays a fixed action sequence through the deterministic interface."""

    def __init__(self, actions):
        self.actions = list(actions)
        self.i = 0

    def mean_action(self, obs):
        action = self.actions[min(self.i, len(self.actions) - 1)]
        self.i += 1
        return np.array([[action]])


def test_report_fixture_large_account():
    report = make_report(
        10000, 14546.08504638672, 649.9545043945312, 474,
        date(2021, 2, 24), date(2021, 5, 1),
    )
    assert report.span_days == 66
    assert report.profit_ratio == pytest.approx(1.4546, abs=1e-4)
    assert render_report(report) == (
        "Begin Account Value\t10000\n"
        "End Account Value\t14546.08504638672\n"
        "Total Cost\t649.9545043945312\n"
        "Total Trades\t474\n"
        "Start Date/End Date\t2021-02-24/2021-05-01 (66 Days)"
    )


def test_report_fixture_unit_account():
    report = make_report(
        1.0, 1.1792819791357025, 0.05, 12, date(2021, 2, 24), date(2021, 3, 1)
    )
    assert report.profit_ratio == 1.1792819791357025  # begin of exactly 1.0
    lines = render_report(report).splitlines()
    assert lines[0] == "Begin Account Value\t1.0"
    assert lines[1] == "End Account Value\t1.1792819791357025"
    assert lines[4] == "Start Date/End Date\t2021-02-24/2021-03-01 (5 Days)"


def test_report_zero_begin_rejected():
    with pytest.raises(ZeroBegin):
        make_report(0, 1.0, 0.0, 0, date(2021, 1, 1), date(2021, 1, 2))


def test_bar_date_is_utc():
    assert bar_date(FEB_24_2021_MS) == date(2021, 2, 24)
    assert bar_date(FEB_24_2021_MS + 23 * 3600 * 1000) == date(2021, 2, 24)
    assert bar_date(FEB_24_2021_MS + 24 * 3600 * 1000) == date(2021, 2, 25)


def test_profit_metrics_values():
    report = make_report(
        10000, 14546.08504638672, 649.9545043945312, 474,
        date(2021, 2, 24), date(2021, 5, 1),
    )
    metrics = evaluate_profit_metrics(report)
    assert metrics["profit_ratio"] == pytest.approx(1.454608504638672, abs=1e-12)
    assert metrics["net_profit"] == pytest.approx(4546.08504638672, abs=1e-9)
    assert metrics["cost_share"] == pytest.approx(0.06499545043945312, abs=1e-12)


def episode_open_times(env):
    return env.series.open_times[env.episode.start:env.episode.stop]


def markers(ledger):
    return [marker(info.executed_units) for info in ledger]


def test_marker_reads_the_sign():
    assert [marker(u) for u in (2.5, 1e-300, 0.0, -0.0, -1e-300, -2.5)] == [
        "buy", "buy", "hold", "hold", "sell", "sell"
    ]


def test_backtest_hand_ledger(tmp_path):
    # close path: buy 5 @100, hold, sell 2.5 @120, forced sale of 2.5 @100
    env = build_env([100, 100, 100, 110, 120, 100], initial_balance=1000.0, fee_rate=0.01)
    assert env.max_buy_amount == 10.0
    policy = ScriptedPolicy([0.5, 0.0, -0.25])
    report, ledger = run_backtest(policy, env)

    assert report.begin_value == 1000.0
    assert report.end_value == pytest.approx(1039.5, abs=1e-9)
    assert report.total_cost == pytest.approx(5.0 + 3.0 + 2.5, abs=1e-9)
    assert report.total_trades == 3
    assert report.start_date == report.end_date == date(2021, 2, 24)
    assert report.span_days == 0
    assert report.profit_ratio == pytest.approx(1.0395, abs=1e-9)

    assert len(ledger) == len(env.episode)
    assert markers(ledger) == ["buy", "hold", "sell", "sell"]
    executed = [info.executed_units for info in ledger]
    assert executed == pytest.approx([5.0, 0.0, -2.5, -2.5])
    # holdings valued at each trade bar's close; final row is the cash balance
    values = [gross_value(info.cash, info.asset_units, info.price) for info in ledger]
    assert values == pytest.approx([995.0, 1045.0, 1092.0, 1039.5], abs=1e-9)
    assert ledger[-1].asset_units == 0.0
    assert ledger[-1].cash == report.end_value
    prices = [info.price for info in ledger]
    assert prices == [100.0, 110.0, 120.0, 100.0]
    path = tmp_path / "annotated.csv"
    export_annotated_series(ledger, episode_open_times(env), path)
    timestamps = [int(line.split(",")[0]) for line in path.read_text().splitlines()[1:]]
    assert timestamps == [int(env.series.open_times[t]) for t in range(2, 6)]


def test_backtest_idle_policy_keeps_balance():
    env = build_env([100, 101, 102, 103, 104, 105], initial_balance=500.0)
    report, ledger = run_backtest(ScriptedPolicy([0.0]), env)
    assert report.end_value == 500.0
    assert report.total_cost == 0.0
    assert report.total_trades == 0
    assert report.profit_ratio == 1.0
    assert Counter(markers(ledger)) == {"hold": len(ledger)}


def test_idle_integer_balance_exports_float_gross_values(tmp_path):
    """An integer ``initial_balance`` stays an int in the cash of an account
    that never trades; every row's gross value is still written as a float,
    the last row included."""
    env = build_env([100, 101, 102, 103, 104, 105], initial_balance=500)
    report, ledger = run_backtest(ScriptedPolicy([0.0]), env)
    assert report.end_value == 500 and type(report.end_value) is int
    path = tmp_path / "annotated.csv"
    export_annotated_series(ledger, episode_open_times(env), path)
    values = [line.split(",")[2] for line in path.read_text().splitlines()[1:]]
    assert values == ["500.0"] * 4


def test_marker_counts_match_trade_count():
    env = build_env([100, 105, 95, 108, 97, 103, 100], initial_balance=2000.0)
    policy = ScriptedPolicy([0.8, -0.3, 0.5, -1.0])
    report, ledger = run_backtest(policy, env)
    counts = Counter(markers(ledger))
    assert counts["buy"] + counts["sell"] == report.total_trades
    assert sum(counts.values()) == len(ledger)


def test_annotated_round_trip(tmp_path):
    env = build_env([100, 102, 99, 104, 101, 100], initial_balance=800.0)
    _, ledger = run_backtest(ScriptedPolicy([0.4, -0.2, 0.1]), env)
    path = tmp_path / "annotated.csv"
    export_annotated_series(ledger, episode_open_times(env), path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(ANNOTATED_HEADER)
    assert len(lines) == len(ledger) + 1
    for line, t, info in zip(lines[1:], episode_open_times(env), ledger):
        timestamp, price, value, mark, units = line.split(",")
        # repr round trip preserves every float bit
        assert (int(timestamp), mark) == (int(t), marker(info.executed_units))
        assert (float(price), float(value), float(units)) == (
            info.price, gross_value(info.cash, info.asset_units, info.price),
            info.executed_units,
        )


def test_annotated_export_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        export_annotated_series([], [], tmp_path / "x.csv")


def test_annotated_export_refuses_misaligned_open_times(tmp_path):
    env = build_env([100, 102, 99, 104, 101, 100])
    _, ledger = run_backtest(ScriptedPolicy([0.4]), env)
    with pytest.raises(ValueError, match="4 ledger rows but 3 open times"):
        export_annotated_series(ledger, episode_open_times(env)[1:], tmp_path / "x.csv")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("fee_rate", [0.0, 0.0075, 0.05])
@pytest.mark.parametrize("seed", range(4))
def test_ledger_csv_matches_annotated_row_rollout(tmp_path, fee_rate, seed):
    """The ledger's CSV has the bytes of the rows the rollout used to rebuild
    from the env's state, on random walks and scripted actions that clamp
    buys (full-size orders past the cash on hand), sell everything (-1 with a
    large order size), and end flat or holding."""
    rng = np.random.default_rng(seed)
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.05, size=40)))
    actions = rng.choice([-1.0, -0.5, 0.0, 0.3, 1.0], size=37).tolist()
    if seed % 2:
        actions[-3:] = [-1.0, -1.0, -1.0]  # flat before the liquidation
    config = {"initial_balance": 1000.0, "fee_rate": fee_rate, "max_buy_amount": 8.0}
    env = build_env(closes, **config)
    _, ledger = run_backtest(ScriptedPolicy(actions), env)
    path = tmp_path / "annotated.csv"
    export_annotated_series(ledger, episode_open_times(env), path)

    rows = oracles.annotated_row_rollout(ScriptedPolicy(actions), build_env(closes, **config))
    assert path.read_bytes() == oracles.annotated_rows_csv(rows).encode()
    assert any(info.clamped and info.executed_units > 0.0 for info in ledger)
    assert any(info.executed_units < 0.0 and info.asset_units == 0.0 for info in ledger[:-1])
    assert (ledger[-1].executed_units == 0.0) == bool(seed % 2)


def test_report_json_deterministic(tmp_path):
    report = make_report(
        1.0, 1.1792819791357025, 0.05, 12, date(2021, 2, 24), date(2021, 3, 1)
    )
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_report_json(report, first)
    save_report_json(report, second)
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().endswith("\n")
    import json

    doc = json.loads(first.read_text())
    assert doc["profit_ratio"] == 1.1792819791357025
    assert doc["start_date"] == "2021-02-24"
