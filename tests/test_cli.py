"""End-to-end command pipeline: config handling, exit codes, artifacts."""

import json
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import pytest

import oracles
from drltrade import cli
from drltrade.agents import GailConfig, PpoConfig, SacConfig
from drltrade.env import EnvConfig
from drltrade.errors import InvariantViolation
from drltrade.features import FeatureConfig
from drltrade.neural import load_checkpoint, write_json
from drltrade.synthetic import make_sine_series

LABELS = [
    "Begin Account Value",
    "End Account Value",
    "Total Cost",
    "Total Trades",
    "Start Date/End Date",
]

BASE_CONFIG = {
    "symbol": "SINE",
    "interval": "4h",
    "data": {"synthetic": {"n_bars": 80, "amplitude": 0.1, "period": 40}},
    "split_fraction": 0.8,
    "algo": "ppo",
    "seed": 0,
    "features": {"window": 4, "columns": ["close", "return"]},
    "env": {"window": 4},
    "ppo": {"total_timesteps": 64, "n_steps": 16, "hidden": [8]},
    "sac": {
        "total_timesteps": 24,
        "buffer_size": 64,
        "batch_size": 16,
        "learning_starts": 8,
        "log_every": 8,
        "hidden": [8],
    },
    "gail": {
        "total_timesteps": 32,
        "horizon": 16,
        "n_expert_episodes": 2,
        "hidden": [8],
    },
}


def write_config(path: Path, out: Path, **extra) -> Path:
    doc = {**BASE_CONFIG, "out": str(out), **extra}
    path.write_text(json.dumps(doc))
    return path


def test_defaults_without_config_file():
    config = cli.load_run_config(None, {})
    assert config.algo == "ppo"
    assert "synthetic" in config.data
    assert config.data["synthetic"]["n_bars"] == 600
    assert config.env.window == config.features.window == 60


def test_flag_overrides_apply(tmp_path):
    cfg = write_config(tmp_path / "c.json", tmp_path / "run")
    config = cli.load_run_config(str(cfg), {"seed": 9, "out": "elsewhere", "algo": "sac"})
    assert (config.seed, config.out, config.algo) == (9, "elsewhere", "sac")
    config = cli.load_run_config(str(cfg), {"seed": None, "out": None, "algo": None})
    assert config.seed == 0  # None means "not given on the command line"


def test_env_window_follows_features(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"features": {"window": 7}}))
    config = cli.load_run_config(str(cfg), {})
    assert config.env.window == 7


def _algo_patch(algo, **block):
    """Select ``algo`` and change its block of BASE_CONFIG."""
    return {"algo": algo, algo: {**BASE_CONFIG[algo], **block}}


@pytest.mark.parametrize(
    "patch",
    [
        {"algo": "dqn"},
        {"interval": "7h"},
        {"data": {"csv": "x.csv", "synthetic": {}}},
        {"data": {}},
        {"env": {"window": 9}},
        {"split_fraction": 1.0},
        {"split_fraction": 0.0},
        {"env": {"window": 4, "initial_balance": 0}},
        {"env": {"window": 4, "initial_balance": float("nan")}},
        {"env": {"window": 4, "fee_rate": 1.5}},
        {"env": {"window": 4, "fee_rate": -0.1}},
        {"env": {"window": 4, "max_buy_amount": -50}},
        {"features": {"window": 0, "columns": ["close", "return"]}, "env": {"window": 0}},
        {"seed": 1.5},
        {"seed": "7"},
        {"seed": -1},
        {"seed": True},
        _algo_patch("ppo", n_steps=0),
        _algo_patch("ppo", n_epochs=0),
        _algo_patch("sac", log_every=0),
        _algo_patch("sac", batch_size=0),
        _algo_patch("gail", horizon=0),
        _algo_patch("ppo", n_steps=16.5),
        _algo_patch("ppo", total_timesteps="64"),
        _algo_patch("sac", batch_size=8.0),
        {"features": {"window": 4.0, "columns": ["close", "return"]}, "env": {"window": 4.0}},
        _algo_patch("gail", horizon=16.0),
        _algo_patch("ppo", hidden=[8.0]),
        _algo_patch("sac", hidden=[True]),
        _algo_patch("gail", n_expert_episodes=False),
        _algo_patch("gail", n_expert_episodes=0),
        _algo_patch("gail", traj_limitation=0),
        _algo_patch("gail", traj_limitation=-5),
        {"features": {"window": 4, "columns": ["close", "return"], "bollinger_n": 20.0}},
        _algo_patch("ppo", learning_rate="0.01"),
        _algo_patch("ppo", ent_coef=True),
        _algo_patch("sac", tau=True),
        {"env": {"window": 4, "reward_scale": "1"}},
        {"features": {"window": 4, "columns": ["close", "return"], "bollinger_m": "2"}},
        {"features": {"window": 4, "columns": "close"}},
        {"symbol": 5},
        {"data": None},
        {"data": {"csv": 5}},
        {"data": {"fetch": {"start": 5, "end": "2021-02-01"}}},
        {"data": {"synthetic": {"n_bars": "200"}}},
        {"data": {"synthetic": {"amplitude": "0.1"}}},
        {"data": {"fetch": {"start": "2021-01-01"}}},
        {"data": {"fetch": {"end": "2021-02-01"}}},
        {"data": {"synthetic": {"n_bars": 0}}},
        {"data": {"synthetic": {"n_bars": -5}}},
    ],
)
def test_config_validation_rejects(tmp_path, capsys, patch):
    cfg = write_config(tmp_path / "c.json", tmp_path / "run", **patch)
    with pytest.raises(ValueError):
        cli.load_run_config(str(cfg), {})
    # train refuses the same config with exit 2, before it writes anything
    assert cli.main(["--config", str(cfg), "train"]) == cli.EXIT_MISSING
    assert "invalid configuration" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "patch,where",
    [
        ({"split_fracton": 0.5}, "config"),
        ({"features": {"window": 4, "windw": 4}}, "features"),
        ({"data": {"synthetic": {"n_bars": 80, "amplitud": 0.2}}}, "data.synthetic"),
        ({"data": {"fetch": {"start": "2021-01-01", "ende": "2021-02-01"}}}, "data.fetch"),
        ({"data": {"csv": "x.csv", "sythetic": {}}}, "data"),
    ],
)
def test_unknown_config_keys_are_refused(tmp_path, capsys, patch, where):
    cfg = write_config(tmp_path / "c.json", tmp_path / "run", **patch)
    with pytest.raises(ValueError, match=f"unknown key.* in {where};"):
        cli.load_run_config(str(cfg), {})
    assert cli.main(["--config", str(cfg), "fetch"]) == cli.EXIT_MISSING
    assert "invalid configuration: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "config",
    [
        FeatureConfig(window=12, columns=("close", "sma5"), bollinger_n=10, bollinger_m=2),
        EnvConfig(max_buy_amount=2.5, fee_rate=0, reward_scale=1, window=7),
        PpoConfig(learning_rate=0.01, hidden=(8, 4)),
        SacConfig(target_entropy=-0.5, tau=1, hidden=()),
        GailConfig(max_kl=5, hidden=(16,)),
        replace(cli.RunConfig(), symbol="X", data={"csv": "x.csv"}, seed=3,
                env=EnvConfig(max_buy_amount=None, initial_balance=100)),
    ],
    ids=lambda config: type(config).__name__,
)
def test_config_blocks_round_trip(tmp_path, config):
    path, again = tmp_path / "block.json", tmp_path / "again.json"
    write_json(path, asdict(config))
    back = cli._block(type(config), json.loads(path.read_text()), "block")
    assert back == config
    write_json(again, asdict(back))  # int-valued floats stay ints
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "patch",
    [
        # floats given as JSON ints are written back as ints
        {"env": {"window": 4, "initial_balance": 10000, "fee_rate": 0, "reward_scale": 1},
         "ppo": {**BASE_CONFIG["ppo"], "gamma": 1, "ent_coef": 0}},
        {"algo": "sac", "env": {"window": 4, "max_buy_amount": None},
         "sac": {**BASE_CONFIG["sac"], "target_entropy": -2, "tau": 1}},
        {"algo": "gail", "features": {"window": 4, "columns": ["close", "return"],
                                      "bollinger_m": 2},
         "gail": {**BASE_CONFIG["gail"], "max_kl": 5}},
    ],
    ids=["ppo", "sac", "gail"],
)
def test_written_config_matches_field_by_field_writer(tmp_path, patch):
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "c.json", out, **patch)
    assert cli.main(["--config", str(cfg), "train"]) == cli.EXIT_OK
    config = cli.load_run_config(str(cfg), {})
    resolved = (out / "config_resolved.json").read_text()
    assert resolved == oracles.reference_json(oracles.resolved_config_json(config))
    for block, given in patch.items():
        if isinstance(given, dict):
            written = json.loads(resolved)[block]
            assert {k: oracles.reference_json(written[k]) for k in given} == {
                k: oracles.reference_json(v) for k, v in given.items()}
    doc = load_checkpoint(out / "checkpoints" / f"{config.algo}.json")
    expected = {
        "feature_config": oracles.feature_config_to_json(config.features),
        "env_config": asdict(config.env),
        "train_config": oracles.algo_config_json(getattr(config, config.algo)),
    }
    for key, block in expected.items():
        assert oracles.reference_json(doc[key]) == oracles.reference_json(block), key


def test_missing_config_file_exits_missing(tmp_path, capsys):
    code = cli.main(["--config", str(tmp_path / "absent.json"), "fetch"])
    assert code == cli.EXIT_MISSING
    assert "not found" in capsys.readouterr().err


def test_invalid_config_exits_missing(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", tmp_path / "run", algo="dqn")
    assert cli.main(["--config", str(cfg), "train"]) == cli.EXIT_MISSING
    assert "invalid configuration" in capsys.readouterr().err


def test_globals_must_precede_subcommand(tmp_path):
    cfg = write_config(tmp_path / "c.json", tmp_path / "run")
    with pytest.raises(SystemExit):
        cli.main(["train", "--config", str(cfg)])


def test_fetch_synthetic_and_overwrite_protocol(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "c.json", out)
    assert cli.main(["--config", str(cfg), "fetch"]) == cli.EXIT_OK
    assert (out / "data" / "klines.csv").exists()
    assert (out / "config_resolved.json").exists()
    out_text = capsys.readouterr().out
    assert "80 bars SINE" in out_text
    assert "filled" not in out_text
    assert cli.main(["--config", str(cfg), "fetch"]) == cli.EXIT_REFUSED
    assert "use --force" in capsys.readouterr().err
    assert cli.main(["--config", str(cfg), "--force", "fetch"]) == cli.EXIT_OK


@pytest.mark.parametrize("force", [[], ["--force"]], ids=["plain", "force"])
def test_fetch_refuses_to_replace_its_own_csv_input(tmp_path, capsys, force):
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "c.json", out)
    assert cli.main(["--config", str(cfg), "fetch"]) == cli.EXIT_OK
    klines = out / "data" / "klines.csv"
    before = klines.read_bytes()
    capsys.readouterr()
    # the same file, named through a detour
    cfg = write_config(tmp_path / "c.json", out,
                       data={"csv": str(out / "data" / ".." / "data" / "klines.csv")})
    assert cli.main(["--config", str(cfg), *force, "fetch"]) == cli.EXIT_REFUSED
    assert "it is data.csv, this fetch's input" in capsys.readouterr().err
    assert klines.read_bytes() == before


def test_fetch_reports_filled_bars(tmp_path, capsys):
    minute = 60_000
    times = [*range(0, 120), *range(123, 240), *range(240 + 1440, 300 + 1440)]
    lines = ["open_time,open,high,low,close,volume"]
    lines += [f"{t * minute},10.0,10.0,10.0,10.0,1.0" for t in times]
    csv = tmp_path / "minutes.csv"
    csv.write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path / "c.json", tmp_path / "run", interval="1m",
                       data={"csv": str(csv)})
    assert cli.main(["--config", str(cfg), "fetch"]) == cli.EXIT_OK
    # a 3-minute hole and a one-day hole are forward-filled, and said so
    assert "1740 bars SINE 1970-01-01..1970-01-02 (1443 filled, longest 1440)" in (
        capsys.readouterr().out
    )


def test_fetch_cache_is_keyed_by_request(tmp_path):
    calls = []

    def transport(url, params, timeout):
        calls.append(params["symbol"])
        price = {"AAA": "10.0", "BBB": "20.0"}[params["symbol"]]
        hour = 3_600_000
        rows = [[params["startTime"] + i * 4 * hour] + [price] * 4 + ["1.0"] for i in range(5)]
        return 200, rows

    def resolve(symbol):
        cfg = write_config(tmp_path / "c.json", tmp_path / "run", symbol=symbol,
                           data={"fetch": {"start": "2021-01-01", "end": "2021-01-02"}})
        return cli.resolve_series(cli.load_run_config(str(cfg), {}), transport=transport)

    assert resolve("AAA").closes[0] == 10.0
    assert resolve("AAA").closes[0] == 10.0
    assert calls == ["AAA"]  # the same request reads the cache
    assert resolve("BBB").closes[0] == 20.0
    assert calls == ["AAA", "BBB"]
    key = json.loads((tmp_path / "run" / "data" / "klines.key.json").read_text())
    assert key == {"symbol": "BBB", "interval": "4h",
                   "start_ms": 1609459200000, "end_ms": 1609545600000}
    # a key cut short by an interrupted run is a cache miss, not an error
    (tmp_path / "run" / "data" / "klines.key.json").write_text('{"symbol": "BB')
    assert resolve("BBB").closes[0] == 20.0
    assert calls == ["AAA", "BBB", "BBB"]
    assert json.loads((tmp_path / "run" / "data" / "klines.key.json").read_text()) == key


@pytest.mark.parametrize(
    "synthetic",
    [{"n_bars": 80, "period": 0}, {"n_bars": 80, "amplitude": 1.5}],
    ids=["nan", "negative"],
)
def test_degenerate_synthetic_series_is_refused(tmp_path, capsys, synthetic):
    cfg = write_config(tmp_path / "c.json", tmp_path / "run", data={"synthetic": synthetic})
    for command in ("fetch", "train"):
        assert cli.main(["--config", str(cfg), command]) == cli.EXIT_RUNTIME
        assert "must be a positive finite price" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


def test_zero_period_sine_is_refused_without_a_numpy_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation, match="must be a positive finite price"):
            make_sine_series(80, period=0)


@pytest.mark.parametrize("n_bars", [0, -5])
def test_sine_series_needs_a_bar(n_bars):
    with pytest.raises(ValueError, match=f"n_bars must be at least 1, got {n_bars}"):
        make_sine_series(n_bars)


def test_fetch_missing_csv_exits_missing(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.json", tmp_path / "run",
        data={"csv": str(tmp_path / "nope.csv")},
    )
    assert cli.main(["--config", str(cfg), "fetch"]) == cli.EXIT_MISSING
    assert "nope.csv" in capsys.readouterr().err


@pytest.mark.parametrize(
    "patch,message",
    [
        (_algo_patch("ppo", total_timesteps=8),
         "ppo.total_timesteps 8 is below ppo.n_steps 16: ppo would train no update"),
        (_algo_patch("sac", total_timesteps=6),
         "sac.total_timesteps 6 is below sac.learning_starts 8"),
        (_algo_patch("sac", buffer_size=6),
         "sac.buffer_size 6 is below sac.learning_starts 8"),
        (_algo_patch("gail", total_timesteps=8),
         "gail.total_timesteps 8 is below gail.horizon 16"),
        # GAIL trains its PPO expert first when out/ holds none
        ({"algo": "gail", "ppo": {**BASE_CONFIG["ppo"], "n_steps": 128}},
         "ppo.total_timesteps 64 is below ppo.n_steps 128"),
    ],
    ids=["ppo", "sac_timesteps", "sac_buffer", "gail", "gail_expert"],
)
def test_train_refuses_a_run_without_updates(tmp_path, capsys, patch, message):
    cfg = write_config(tmp_path / "c.json", tmp_path / "run", **patch)
    assert cli.main(["--config", str(cfg), "train"]) == cli.EXIT_MISSING
    assert capsys.readouterr().err.startswith(f"invalid configuration: {message}")
    assert not (tmp_path / "run").exists()


def test_gail_with_a_stored_expert_ignores_the_ppo_block(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["--config", str(write_config(tmp_path / "p.json", out)), "train"]) == 0
    cfg = write_config(tmp_path / "g.json", out, algo="gail",
                       ppo={**BASE_CONFIG["ppo"], "n_steps": 128})
    assert cli.main(["--config", str(cfg), "train"]) == cli.EXIT_OK
    assert (out / "checkpoints" / "gail.json").exists()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny end-to-end run shared by the artifact assertions below."""
    root = tmp_path_factory.mktemp("pipeline")
    out = root / "run"
    cfg = write_config(root / "config.json", out)
    assert cli.main(["--config", str(cfg), "train"]) == cli.EXIT_OK
    assert cli.main(["--config", str(cfg), "backtest"]) == cli.EXIT_OK
    return cfg, out


def test_train_artifacts(trained):
    cfg, out = trained
    doc = load_checkpoint(out / "checkpoints" / "ppo.json")
    assert doc["kind"] == "ppo"
    assert doc["seed"] == 0
    assert doc["feature_config"]["window"] == 4
    log_head = (out / "logs" / "ppo_train.csv").read_text().splitlines()[0]
    for column in ("step", "loss", "policy_loss", "entropy", "clip_fraction"):
        assert column in log_head
    resolved = json.loads((out / "config_resolved.json").read_text())
    assert resolved["ppo"]["total_timesteps"] == 64
    assert resolved["out"] == str(out)


def test_retrain_refused_then_forced(trained, capsys):
    cfg, out = trained
    assert cli.main(["--config", str(cfg), "train"]) == cli.EXIT_REFUSED
    assert "use --force" in capsys.readouterr().err
    before = (out / "checkpoints" / "ppo.json").read_bytes()
    assert cli.main(["--config", str(cfg), "--force", "train"]) == cli.EXIT_OK
    assert (out / "checkpoints" / "ppo.json").read_bytes() == before  # same seed


def test_backtest_artifacts_and_output(trained, capsys):
    cfg, out = trained
    assert cli.main(["--config", str(cfg), "--force", "backtest"]) == cli.EXIT_OK
    stdout = capsys.readouterr().out
    for label in LABELS:
        assert f"{label}\t" in stdout
    report = json.loads((out / "reports" / "ppo_report.json").read_text())
    assert report["begin_value"] == 10000.0
    rendered = (out / "reports" / "ppo_report.txt").read_text()
    assert rendered.rstrip("\n") in stdout
    annotated = (out / "reports" / "ppo_annotated.csv").read_text().splitlines()
    assert annotated[0] == "timestamp,price,gross_value,marker,executed_units"
    assert len(annotated) - 1 == 80 - 64  # one row per held-out bar


def test_backtest_missing_checkpoint_exits_missing(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", tmp_path / "fresh")
    assert cli.main(["--config", str(cfg), "backtest"]) == cli.EXIT_MISSING
    assert "checkpoint not found" in capsys.readouterr().err


def test_backtest_explicit_checkpoint_flag(trained, tmp_path, capsys):
    cfg, out = trained
    other = tmp_path / "elsewhere"
    ckpt = out / "checkpoints" / "ppo.json"
    code = cli.main(
        ["--config", str(cfg), "--out", str(other), "backtest",
         "--checkpoint", str(ckpt)]
    )
    assert code == cli.EXIT_OK
    assert (other / "reports" / "ppo_report.json").exists()


def _backtest_edited_checkpoint(trained, tmp_path, edit):
    """Back-test a copy of the trained checkpoint, changed by ``edit``, into a fresh out."""
    cfg, out = trained
    doc = json.loads((out / "checkpoints" / "ppo.json").read_text())
    edit(doc)
    ckpt = tmp_path / "ppo.json"
    write_json(ckpt, doc)
    other = tmp_path / "elsewhere"
    code = cli.main(
        ["--config", str(cfg), "--out", str(other), "backtest", "--checkpoint", str(ckpt)]
    )
    return code, ckpt, other


@pytest.mark.parametrize(
    "key", ["kind", "policy", "feature_config", "env_config", "normalizer", "split_fraction"]
)
def test_backtest_refuses_a_checkpoint_without_a_key_it_reads(trained, tmp_path, capsys, key):
    code, ckpt, other = _backtest_edited_checkpoint(trained, tmp_path, lambda doc: doc.pop(key))
    assert code == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(ckpt) in err and repr(key) in err
    assert not other.exists()


@pytest.mark.parametrize(
    "key,malform",
    [
        ("kind", lambda kind: "../x"),  # would name report files outside reports/
        ("policy", lambda policy: {"mean_net": policy["mean_net"]}),
        ("policy", lambda policy: [policy]),
        ("normalizer", lambda norm: {k: v for k, v in norm.items() if k != "means"}),
        ("split_fraction", str),
    ],
    ids=["kind_path", "policy_without_log_std", "policy_list", "normalizer_without_means",
         "split_fraction_string"],
)
def test_backtest_refuses_a_malformed_checkpoint_entry(trained, tmp_path, capsys, key, malform):
    def edit(doc):
        doc[key] = malform(doc[key])

    code, ckpt, other = _backtest_edited_checkpoint(trained, tmp_path, edit)
    assert code == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {ckpt} ") and key in err
    assert not other.exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_backtest_refuses_non_finite_policy(trained, tmp_path, capsys, bad):
    """A NaN weight would hold on every bar and print a normal report."""
    cfg, out = trained
    doc = json.loads((out / "checkpoints" / "ppo.json").read_text())
    doc["policy"]["mean_net"]["weights"][0][0][0] = float(bad)
    ckpt = tmp_path / "ppo_diverged.json"
    ckpt.write_text(json.dumps(doc))
    other = tmp_path / "elsewhere"
    code = cli.main(
        ["--config", str(cfg), "--out", str(other), "backtest", "--checkpoint", str(ckpt)]
    )
    assert code == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    assert str(ckpt) in captured.err and "non-finite" in captured.err
    assert captured.out == ""
    assert not (other / "reports").exists()


def test_report_prints_metrics(trained, capsys):
    cfg, _ = trained
    assert cli.main(["--config", str(cfg), "report"]) == cli.EXIT_OK
    stdout = capsys.readouterr().out
    assert "Begin Account Value\t" in stdout
    for key in ("profit_ratio", "net_profit", "cost_share"):
        assert f"{key}\t" in stdout


@pytest.mark.parametrize(
    "malform",
    [
        lambda doc: {k: v for k, v in doc.items() if k != "end_value"},
        lambda doc: [doc],
        lambda doc: {**doc, "start_date": 20210101},
    ],
    ids=["without_end_value", "list", "date_not_a_string"],
)
def test_report_refuses_a_report_it_cannot_read(trained, tmp_path, capsys, malform):
    cfg, out = trained
    doc = json.loads((out / "reports" / "ppo_report.json").read_text())
    path = tmp_path / "other" / "reports" / "ppo_report.json"
    path.parent.mkdir(parents=True)
    write_json(path, malform(doc))
    code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "other"), "report"])
    assert code == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: report {path} ")
    assert captured.out == ""


def test_report_missing_exits_missing(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", tmp_path / "fresh")
    assert cli.main(["--config", str(cfg), "report"]) == cli.EXIT_MISSING
    assert "report not found" in capsys.readouterr().err


def test_resolved_config_reproduces_run(trained, tmp_path):
    cfg, out = trained
    resolved = out / "config_resolved.json"
    replay_out = tmp_path / "replay"
    code = cli.main(["--config", str(resolved), "--out", str(replay_out), "train"])
    assert code == cli.EXIT_OK
    original = (out / "checkpoints" / "ppo.json").read_bytes()
    replayed = (replay_out / "checkpoints" / "ppo.json").read_bytes()
    assert replayed == original


def test_sac_checkpoint_contents(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "c.json", out, algo="sac")
    assert cli.main(["--config", str(cfg), "train"]) == cli.EXIT_OK
    doc = load_checkpoint(out / "checkpoints" / "sac.json")
    assert doc["kind"] == "sac"
    for key in ("policy", "q1", "q2", "q1_target", "q2_target", "log_alpha"):
        assert key in doc


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "algo,block,message,networks",
    [
        ("gail", {"total_timesteps": 32, "horizon": 32, "value_lr": 1e308},
         "non-finite value_net at step 32", {"policy", "value_net", "discriminator"}),
        ("sac", {"learning_rate": 1e308}, "non-finite actor_loss at step 8",
         {"policy", "q1", "q2", "q1_target", "q2_target", "log_alpha"}),
    ],
    ids=["gail", "sac"],
)
def test_diverged_checkpoint_holds_every_network(tmp_path, capsys, algo, block, message,
                                                 networks):
    """A run that goes non-finite names what did and saves every network it trains."""
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "c.json", out, **_algo_patch(algo, **block),
                       data={"synthetic": {"n_bars": 120, "amplitude": 0.1, "period": 40}})
    assert cli.main(["--config", str(cfg), "train"]) == cli.EXIT_RUNTIME
    path = out / "checkpoints" / f"{algo}_diverged.json"
    assert capsys.readouterr().err == f"training diverged: {message}; state saved to {path}\n"
    doc = load_checkpoint(path)
    assert networks <= set(doc)
    assert doc["step"] == int(message.rsplit(" ", 1)[1])
    assert not (out / "checkpoints" / f"{algo}.json").exists()


def test_gail_refuses_a_malformed_expert_policy(tmp_path, capsys):
    out = tmp_path / "run"
    ppo_cfg = write_config(tmp_path / "ppo.json", out)
    gail_cfg = write_config(tmp_path / "gail.json", out, algo="gail")
    assert cli.main(["--config", str(ppo_cfg), "train"]) == cli.EXIT_OK
    expert = out / "checkpoints" / "ppo.json"
    doc = json.loads(expert.read_text())
    del doc["policy"]["log_std"]
    write_json(expert, doc)
    capsys.readouterr()
    assert cli.main(["--config", str(gail_cfg), "train"]) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err == f"error: checkpoint {expert} has a malformed policy entry\n"
    assert not (out / "checkpoints" / "gail.json").exists()
    assert not (out / "data" / "expert.csv").exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_gail_refuses_a_non_finite_expert_policy(tmp_path, capsys, bad):
    """A broken expert is refused before it generates a pair, not blamed on the imitator."""
    out = tmp_path / "run"
    ppo_cfg = write_config(tmp_path / "ppo.json", out)
    gail_cfg = write_config(tmp_path / "gail.json", out, algo="gail")
    assert cli.main(["--config", str(ppo_cfg), "train"]) == cli.EXIT_OK
    expert = out / "checkpoints" / "ppo.json"
    doc = json.loads(expert.read_text())
    doc["policy"]["mean_net"]["weights"][0][0][0] = float(bad)
    expert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["--config", str(gail_cfg), "train"]) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err == f"error: checkpoint {expert} has a policy with non-finite parameters\n"
    for rel in ("checkpoints/gail.json", "checkpoints/gail_diverged.json", "data/expert.csv"):
        assert not (out / rel).exists(), rel


def test_gail_trains_expert_then_reuses_it(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "c.json", out, algo="gail")
    assert cli.main(["--config", str(cfg), "train"]) == cli.EXIT_OK
    for rel in (
        "checkpoints/ppo.json",
        "checkpoints/gail.json",
        "data/expert.csv",
        "logs/ppo_train.csv",
        "logs/gail_train.csv",
    ):
        assert (out / rel).exists(), rel
    expert_bytes = (out / "checkpoints" / "ppo.json").read_bytes()
    gail_bytes = (out / "checkpoints" / "gail.json").read_bytes()
    # second run finds the expert checkpoint and trains only the imitator
    assert cli.main(["--config", str(cfg), "--force", "train"]) == cli.EXIT_OK
    assert (out / "checkpoints" / "ppo.json").read_bytes() == expert_bytes
    assert (out / "checkpoints" / "gail.json").read_bytes() == gail_bytes


def test_gail_trains_the_expert_a_ppo_run_trains(tmp_path):
    """Without a PPO checkpoint in ``out``, GAIL writes the one ``train --algo ppo`` writes."""
    ppo_out, gail_out = tmp_path / "ppo", tmp_path / "gail"
    ppo_cfg = write_config(tmp_path / "ppo.json", ppo_out)
    gail_cfg = write_config(tmp_path / "gail.json", gail_out, algo="gail")
    assert cli.main(["--config", str(ppo_cfg), "train"]) == cli.EXIT_OK
    assert cli.main(["--config", str(gail_cfg), "train"]) == cli.EXIT_OK
    for rel in ("checkpoints/ppo.json", "logs/ppo_train.csv"):
        assert (gail_out / rel).read_bytes() == (ppo_out / rel).read_bytes(), rel


@pytest.mark.parametrize(
    "gail_patch,key",
    [
        # equal observation widths: 2 + 4 windows x 2 columns
        ({"features": {"window": 4, "columns": ["open", "return"]}}, "feature_config"),
        ({"split_fraction": 0.7}, "normalizer"),
    ],
)
def test_gail_refuses_an_expert_of_other_features(tmp_path, capsys, gail_patch, key):
    out = tmp_path / "run"
    ppo_cfg = write_config(tmp_path / "ppo.json", out)
    gail_cfg = write_config(tmp_path / "gail.json", out, algo="gail", **gail_patch)
    assert cli.main(["--config", str(ppo_cfg), "train"]) == cli.EXIT_OK
    expert_bytes = (out / "checkpoints" / "ppo.json").read_bytes()
    capsys.readouterr()
    assert cli.main(["--config", str(gail_cfg), "train"]) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert f"trained with another {key}" in err and "ppo.json" in err
    assert not (out / "checkpoints" / "gail.json").exists()
    assert not (out / "data" / "expert.csv").exists()
    assert (out / "checkpoints" / "ppo.json").read_bytes() == expert_bytes
