"""Command-line pipeline: fetch klines, train an agent, backtest, report.

Commands share one JSON config with a block per component; flags given before
the subcommand override config values. Every run writes the fully resolved
config next to its artifacts so the exact run can be reproduced from it.

Exit codes: 0 success, 1 runtime failure, 2 missing input, 3 refused overwrite.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from datetime import date, datetime, timezone
from functools import cache, partial
from inspect import signature
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import agents
from .agents import (
    ExpertDataset,
    GailConfig,
    PpoConfig,
    SacConfig,
    generate_expert_dataset,
    ppo_train,
    save_expert_dataset,
    write_training_log,
)
from .backtest import (
    BacktestReport,
    evaluate_profit_metrics,
    export_annotated_series,
    make_report,
    render_report,
    run_backtest,
    save_report_json,
)
from .env import EnvConfig, TradingEnv
from .errors import DimensionMismatch, DivergenceDetected, NetworkError
from .features import (
    FeatureConfig,
    build_feature_matrix,
    fit_normalizer,
    normalize,
    normalizer_from_json,
    normalizer_to_json,
)
from .market_data import (
    INTERVAL_MS,
    BinanceClient,
    KlineSeries,
    load_klines_csv,
    save_klines_csv,
    split_train_test,
)
from .neural import GaussianPolicy, load_checkpoint, save_checkpoint, write_json
from .synthetic import make_sine_series

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_MISSING = 2
EXIT_REFUSED = 3

# Each algorithm trains with ``agents.<algo>_train``, looked up when it is
# called; GAIL's also takes the expert dataset, which cmd_train builds for it.
# Each config block is a field of RunConfig.
ALGOS = ("ppo", "sac", "gail")

# (field, floor) pairs of each algorithm block: with a field below its floor
# the trainer runs no update, and the run would save untrained networks.
UPDATE_FLOORS = {
    "ppo": [("total_timesteps", "n_steps")],
    "sac": [("total_timesteps", "learning_starts"), ("buffer_size", "learning_starts")],
    "gail": [("total_timesteps", "horizon")],
}

# The checkpoint entries each reader decodes; the rest (value, critic and
# discriminator nets) is syntax-checked but not converted.
BACKTEST_KEYS = ("kind", "policy", "feature_config", "env_config", "normalizer",
                 "split_fraction")
EXPERT_KEYS = ("policy", "feature_config", "normalizer")


DEFAULT_SYNTHETIC = {
    "n_bars": 600,
    "base": 100.0,
    "amplitude": 0.1,
    "period": 40,
    "volume": 1000.0,
    "start_time": 1609459200000,  # 2021-01-01T00:00:00Z
}


@dataclass
class RunConfig:
    symbol: str = "ETHUSDT"
    interval: str = "4h"
    # exactly one of csv / fetch / synthetic, kept as written
    data: dict = field(default_factory=lambda: {"synthetic": dict(DEFAULT_SYNTHETIC)})
    split_fraction: float = 0.95
    algo: str = "ppo"
    seed: int = 0
    out: str = "runs/latest"
    features: FeatureConfig = FeatureConfig()
    env: EnvConfig = EnvConfig()
    ppo: PpoConfig = PpoConfig()
    sac: SacConfig = SacConfig()
    gail: GailConfig = GailConfig()


DATA_SOURCES = ("csv", "fetch", "synthetic")
FETCH_KEYS = ("start", "end")


@cache
def _hints(owner) -> dict:
    """The resolved annotations of a class's fields or a function's parameters."""
    return get_type_hints(owner)


def _check_keys(block, allowed, where: str) -> None:
    """Refuse a config block that is not an object or names a key not in ``allowed``."""
    if not isinstance(block, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(block).__name__}")
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ValueError(f"unknown key(s) {unknown} in {where}; known: {sorted(allowed)}")


def _value(hint, value, name: str):
    """``value`` if the annotation ``hint`` allows it; a list becomes a tuple.

    An ``int`` takes no bool, float or string, a ``float`` takes an int as it
    is but no bool or string, ``X | None`` also takes null, and a dataclass
    takes an object, walked by ``_block``.
    """
    args = get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        (hint,) = (arg for arg in args if arg is not type(None))
        args = get_args(hint)
    if is_dataclass(hint):
        return _block(hint, value, name)
    if get_origin(hint) is tuple:
        if type(value) is list:
            return tuple(_value(args[0], item, f"{name}[{i}]") for i, item in enumerate(value))
        raise ValueError(f"{name} must be a list of {args[0].__name__}, got {value!r}")
    if type(value) is hint or hint is float and type(value) is int:
        return value
    raise ValueError(f"{name} must be of type {hint.__name__}, got {value!r}")


def _values(hints: dict, block, where: str) -> dict:
    """``block``'s entries, each checked against its key's annotation in ``hints``."""
    _check_keys(block, hints, where)
    prefix = f"{where}." if where != "config" else ""
    return {key: _value(hints[key], value, prefix + key) for key, value in block.items()}


def _block(cls, block, where: str, **defaults):
    """The dataclass ``cls`` built from its JSON object ``block``.

    ``defaults`` stand in for keys ``block`` leaves out, before the class's own.
    """
    return cls(**{**defaults, **_values(_hints(cls), block, where)})


def _check_data(data) -> dict:
    """Refuse a data block that does not name one well-typed source; return it as is."""
    _check_keys(data, DATA_SOURCES, "data")
    sources = [key for key in DATA_SOURCES if key in data]
    if len(sources) != 1:
        raise ValueError(
            f"config must name exactly one data source (csv, fetch, or synthetic), "
            f"got {sources}"
        )
    if "csv" in data:
        _value(str, data["csv"], "data.csv")
    if "fetch" in data:
        _values(dict.fromkeys(FETCH_KEYS, str), data["fetch"], "data.fetch")
        missing = [key for key in FETCH_KEYS if key not in data["fetch"]]
        if missing:
            raise ValueError(f"data.fetch must give both start and end; missing {missing}")
    if "synthetic" in data:
        hints = _hints(make_sine_series)
        block = _values({key: hints[key] for key in DEFAULT_SYNTHETIC}, data["synthetic"],
                        "data.synthetic")
        if block.get("n_bars", 1) < 1:
            raise ValueError(f"data.synthetic.n_bars must be at least 1, got {block['n_bars']}")
    return data


def load_run_config(path: str | None, overrides: dict) -> RunConfig:
    """Read the config file (if any), apply flag overrides, validate.

    ``env.window`` defaults to ``features.window``, and the data block is
    checked but kept as written.
    """
    raw: dict = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise FileNotFoundError(f"config file not found: {p}")
        raw = json.loads(p.read_text())
    _check_keys(raw, _hints(RunConfig), "config")
    config = _block(RunConfig, {k: v for k, v in raw.items() if k not in ("data", "env")},
                    "config")
    if "data" in raw:
        config.data = _check_data(raw["data"])
    config.env = _block(EnvConfig, raw.get("env", {}), "env", window=config.features.window)
    for key, value in overrides.items():
        if value is not None:
            setattr(config, key, value)
    if config.algo not in ALGOS:
        raise ValueError(f"algo must be one of {ALGOS}, got {config.algo!r}")
    if config.seed < 0:
        raise ValueError(f"seed must be non-negative, got {config.seed!r}")
    if config.interval not in INTERVAL_MS:
        raise ValueError(f"unknown interval {config.interval!r}")
    if config.env.window != config.features.window:
        raise ValueError(
            f"env window {config.env.window} != feature window {config.features.window}"
        )
    if not 0.0 < config.split_fraction < 1.0:
        raise ValueError(f"split_fraction must be in (0, 1), got {config.split_fraction}")
    return config


def _echo_config(config: RunConfig) -> None:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "config_resolved.json", asdict(config))


def _date_ms(text: str) -> int:
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp() * 1000)


def resolve_series(config: RunConfig, transport=None) -> KlineSeries:
    """Materialize the configured data source as a validated series."""
    interval_ms = INTERVAL_MS[config.interval]
    data = config.data
    if "csv" in data:
        path = Path(data["csv"])
        if not path.exists():
            raise FileNotFoundError(f"kline fixture not found: {path}")
        return load_klines_csv(path, symbol=config.symbol, interval_ms=interval_ms)
    if "synthetic" in data:
        block = {**DEFAULT_SYNTHETIC, **data["synthetic"]}
        return make_sine_series(**block, interval_ms=interval_ms, symbol=config.symbol)
    # The cache serves only the request that filled it: its key is written
    # after the CSV and removed before a new fetch overwrites the CSV.
    fetch = data["fetch"]
    cache, key_path = _kline_cache(config)
    key = {
        "symbol": config.symbol,
        "interval": config.interval,
        "start_ms": _date_ms(fetch["start"]),
        "end_ms": _date_ms(fetch["end"]),
    }
    if cache.exists() and _read_key(key_path) == key:
        return load_klines_csv(cache, symbol=config.symbol, interval_ms=interval_ms)
    client = BinanceClient(transport=transport) if transport else BinanceClient()
    series = client.fetch_klines(config.symbol, config.interval, key["start_ms"], key["end_ms"])
    cache.parent.mkdir(parents=True, exist_ok=True)
    key_path.unlink(missing_ok=True)
    save_klines_csv(series, cache)
    write_json(key_path, key)
    return series


def _kline_cache(config: RunConfig) -> tuple[Path, Path]:
    """The kline CSV under ``out/data`` and the key of the fetch that wrote it."""
    data_dir = Path(config.out) / "data"
    return data_dir / "klines.csv", data_dir / "klines.key.json"


def _read_key(key_path: Path):
    """The stored fetch key, or None when it is missing or unreadable."""
    try:
        return json.loads(key_path.read_text())
    except (OSError, ValueError):
        return None


def _series_summary(series: KlineSeries) -> str:
    first = datetime.fromtimestamp(int(series.open_times[0]) // 1000, tz=timezone.utc)
    last = datetime.fromtimestamp(int(series.open_times[-1]) // 1000, tz=timezone.utc)
    text = (
        f"{len(series)} bars {series.symbol} "
        f"{first.date().isoformat()}..{last.date().isoformat()}"
    )
    filled = np.asarray(series.filled_indices)
    if filled.size:
        run_ends = np.append(np.flatnonzero(np.diff(filled) != 1), filled.size - 1)
        longest = int(np.diff(run_ends, prepend=-1).max())
        text += f" ({filled.size} filled, longest {longest})"
    return text


def cmd_fetch(config: RunConfig, force: bool) -> int:
    dest, key_path = _kline_cache(config)
    if "csv" in config.data and Path(config.data["csv"]).resolve() == dest.resolve():
        print(f"refusing to overwrite {dest}: it is data.csv, this fetch's input",
              file=sys.stderr)
        return EXIT_REFUSED
    if dest.exists() and not force:
        print(f"refusing to overwrite {dest} (use --force)", file=sys.stderr)
        return EXIT_REFUSED
    # --force fetches again; a CSV from another source never keeps a fetch key
    dest.unlink(missing_ok=True)
    key_path.unlink(missing_ok=True)
    series = resolve_series(config)
    if "fetch" not in config.data:  # a fetch source saved its cache already
        dest.parent.mkdir(parents=True, exist_ok=True)
        save_klines_csv(series, dest)
    _echo_config(config)
    print(f"wrote {dest}: {_series_summary(series)}")
    return EXIT_OK


@dataclass
class Prepared:
    """Everything derived from the data that training and backtest share."""

    series: KlineSeries
    norm_matrix: object
    normalizer: object
    n_train: int


def prepare(config: RunConfig, normalizer=None) -> Prepared:
    """Build features over the full series; statistics come from train rows only."""
    series = resolve_series(config)
    train_series, _ = split_train_test(series, config.split_fraction)
    n_train = len(train_series)
    matrix = build_feature_matrix(series, config.features)
    if normalizer is None:
        normalizer = fit_normalizer(matrix, range(matrix.valid_from, n_train))
    norm_matrix = normalize(matrix, normalizer)
    return Prepared(
        series=series, norm_matrix=norm_matrix, normalizer=normalizer, n_train=n_train
    )


def _train_episode(prepared: Prepared, config: RunConfig) -> range:
    first_t = prepared.norm_matrix.valid_from + config.features.window - 1
    return range(first_t, prepared.n_train)


def _test_episode(prepared: Prepared) -> range:
    return range(prepared.n_train, len(prepared.series))


def _checkpoint_payload(config: RunConfig, prepared: Prepared) -> dict:
    return {
        "symbol": config.symbol,
        "interval": config.interval,
        "split_fraction": config.split_fraction,
        "seed": config.seed,
        "feature_config": asdict(config.features),
        "env_config": asdict(config.env),
        "normalizer": normalizer_to_json(prepared.normalizer),
    }


def cmd_train(config: RunConfig, force: bool) -> int:
    out = Path(config.out)
    ckpt_path = out / "checkpoints" / f"{config.algo}.json"
    trained = [config.algo]
    if config.algo == "gail" and not (out / "checkpoints" / "ppo.json").exists():
        trained.append("ppo")  # the expert _expert_dataset trains first
    for algo in trained:
        block = getattr(config, algo)
        for name, floor in UPDATE_FLOORS[algo]:
            if getattr(block, name) < getattr(block, floor):
                print(f"invalid configuration: {algo}.{name} {getattr(block, name)} is below "
                      f"{algo}.{floor} {getattr(block, floor)}: {algo} would train no update",
                      file=sys.stderr)
                return EXIT_MISSING
    if ckpt_path.exists() and not force:
        print(f"refusing to overwrite {ckpt_path} (use --force)", file=sys.stderr)
        return EXIT_REFUSED
    prepared = prepare(config)
    rng = np.random.default_rng(config.seed)
    train_env = TradingEnv(
        prepared.series, prepared.norm_matrix, config.env, _train_episode(prepared, config)
    )
    base = _checkpoint_payload(config, prepared)
    ckpt_path.parent.mkdir(parents=True, exist_ok=True)
    (out / "logs").mkdir(parents=True, exist_ok=True)
    _echo_config(config)
    train = getattr(agents, f"{config.algo}_train")
    try:
        if config.algo == "gail":
            train = partial(train, expert=_expert_dataset(config, base, train_env))
        result = train(train_env, config=getattr(config, config.algo), rng=rng)
    except DivergenceDetected as exc:
        crash_path = out / "checkpoints" / f"{config.algo}_diverged.json"
        save_checkpoint(crash_path, config.algo, {**base, **exc.artifacts})
        print(f"training diverged: {exc}; state saved to {crash_path}", file=sys.stderr)
        return EXIT_RUNTIME
    _save_trained(config, config.algo, base, result)
    print(f"wrote {ckpt_path}")
    return EXIT_OK


def _save_trained(config: RunConfig, algo: str, base: dict, result) -> None:
    """Write an algorithm's checkpoint and its training log under ``out``."""
    out = Path(config.out)
    payload = {
        **base,
        "train_config": asdict(getattr(config, algo)),
        **result.networks_json(),
    }
    save_checkpoint(out / "checkpoints" / f"{algo}.json", algo, payload)
    write_training_log(result.history, out / "logs" / f"{algo}_train.csv")


def _expert_dataset(config: RunConfig, base: dict, train_env: TradingEnv) -> ExpertDataset:
    """GAIL's expert pairs, from the PPO checkpoint in ``out`` or one trained now.

    A stored expert is refused when it saw other features or another
    normalizer than this run: its observations would mean something else.
    """
    out = Path(config.out)
    ppo_ckpt = out / "checkpoints" / "ppo.json"
    if ppo_ckpt.exists():
        doc = load_checkpoint(ppo_ckpt, EXPERT_KEYS)
        for key in ("feature_config", "normalizer"):
            if json.dumps(doc[key], sort_keys=True) != json.dumps(base[key], sort_keys=True):
                raise ValueError(f"expert {ppo_ckpt} was trained with another {key} "
                                 f"than this run; remove it or train with --out elsewhere")
        policy = _decode_policy(ppo_ckpt, doc)
    else:
        result = ppo_train(train_env, config.ppo, np.random.default_rng(config.seed))
        _save_trained(config, "ppo", base, result)
        policy = result.policy
    gail = config.gail
    expert = generate_expert_dataset(policy, train_env, gail.n_expert_episodes,
                                     gail.traj_limitation)
    (out / "data").mkdir(parents=True, exist_ok=True)
    save_expert_dataset(expert, out / "data" / "expert.csv")
    return expert


def _decode(path: Path, doc: dict, key: str, decode):
    """``decode(doc[key])``; a ValueError naming the checkpoint if the entry is malformed."""
    try:
        return decode(doc[key])
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"checkpoint {path} has a malformed {key} entry") from None


def _decode_policy(path: Path, doc: dict) -> GaussianPolicy:
    """The checkpoint's policy, refused if a parameter is not finite.

    A NaN mean would read as "hold" on every bar: a backtest would pass it for
    a report, and GAIL would imitate the expert pairs it generates.
    """
    policy = _decode(path, doc, "policy", GaussianPolicy.from_json)
    if not np.isfinite(policy.params()).all():
        raise ValueError(f"checkpoint {path} has a policy with non-finite parameters")
    return policy


def cmd_backtest(config: RunConfig, checkpoint: str | None, force: bool) -> int:
    out = Path(config.out)
    ckpt_path = Path(checkpoint) if checkpoint else out / "checkpoints" / f"{config.algo}.json"
    if not ckpt_path.exists():
        raise FileNotFoundError(f"checkpoint not found: {ckpt_path}")
    doc = load_checkpoint(ckpt_path, BACKTEST_KEYS)
    algo = doc["kind"]
    if algo not in ALGOS:  # it names the report files
        raise ValueError(f"checkpoint {ckpt_path} has kind {algo!r}, not one of {ALGOS}")
    report_path = out / "reports" / f"{algo}_report.json"
    if report_path.exists() and not force:
        print(f"refusing to overwrite {report_path} (use --force)", file=sys.stderr)
        return EXIT_REFUSED
    policy = _decode_policy(ckpt_path, doc)
    where = f"checkpoint {ckpt_path}"
    feature_config = _block(FeatureConfig, doc["feature_config"], f"{where} feature_config")
    env_config = _block(EnvConfig, doc["env_config"], f"{where} env_config")
    normalizer = _decode(ckpt_path, doc, "normalizer", normalizer_from_json)
    run = replace(
        config,
        features=feature_config,
        env=env_config,
        split_fraction=_value(float, doc["split_fraction"], f"{where} split_fraction"),
    )
    prepared = prepare(run, normalizer=normalizer)
    test_env = TradingEnv(
        prepared.series, prepared.norm_matrix, env_config, _test_episode(prepared)
    )
    if policy.obs_dim != test_env.observation_dim:
        raise DimensionMismatch(
            f"checkpoint expects {policy.obs_dim}-dim observations, features "
            f"produce {test_env.observation_dim}"
        )
    report, ledger = run_backtest(policy, test_env)
    report_path.parent.mkdir(parents=True, exist_ok=True)
    save_report_json(report, report_path)
    with open(out / "reports" / f"{algo}_report.txt", "w") as fh:
        fh.write(render_report(report) + "\n")
    open_times = prepared.series.open_times[test_env.episode.start:test_env.episode.stop]
    export_annotated_series(ledger, open_times, out / "reports" / f"{algo}_annotated.csv")
    _echo_config(run)
    print(render_report(report))
    return EXIT_OK


def cmd_report(config: RunConfig) -> int:
    path = Path(config.out) / "reports" / f"{config.algo}_report.json"
    if not path.exists():
        raise FileNotFoundError(f"report not found: {path}")
    try:
        doc = json.loads(path.read_text())
        for key in ("start_date", "end_date"):
            doc[key] = date.fromisoformat(doc[key])
        report = make_report(**{name: doc[name] for name in signature(make_report).parameters})
        metrics = evaluate_profit_metrics(report)
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"report {path} cannot be read: {type(err).__name__}: {err}") from None
    print(render_report(report))
    for key in ("profit_ratio", "net_profit", "cost_share"):
        print(f"{key}\t{metrics[key]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drltrade",
        description="Train and evaluate trading agents on exchange klines.",
    )
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--force", action="store_true", help="overwrite existing outputs")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("fetch", help="materialize the configured data source as CSV")
    train = sub.add_parser("train", help="train the configured algorithm")
    train.add_argument("--algo", choices=ALGOS, help="override the config algorithm")
    back = sub.add_parser("backtest", help="evaluate a checkpoint on the test split")
    back.add_argument("--algo", choices=ALGOS, help="override the config algorithm")
    back.add_argument("--checkpoint", help="explicit checkpoint path")
    rep = sub.add_parser("report", help="print a saved report")
    rep.add_argument("--algo", choices=ALGOS, help="override the config algorithm")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "seed": args.seed,
        "out": args.out,
        "algo": getattr(args, "algo", None),
    }
    try:
        config = load_run_config(args.config, overrides)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_MISSING
    except (ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_MISSING
    try:
        if args.command == "fetch":
            return cmd_fetch(config, args.force)
        if args.command == "train":
            return cmd_train(config, args.force)
        if args.command == "backtest":
            return cmd_backtest(config, args.checkpoint, args.force)
        return cmd_report(config)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_MISSING
    except (NetworkError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
