"""Command-line pipeline: fetch klines, train an agent, backtest, report.

Commands share one JSON config with a block per component; flags given before
the subcommand override config values. Every run writes the fully resolved
config next to its artifacts so the exact run can be reproduced from it.

Exit codes: 0 success, 1 runtime failure, 2 missing input, 3 refused overwrite.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from datetime import date, datetime, timezone
from functools import partial
from inspect import signature
from pathlib import Path
from typing import Annotated, get_args, get_origin

import numpy as np

from . import agents
from .agents import (
    ExpertDataset,
    GailConfig,
    PpoConfig,
    SacConfig,
    generate_expert_dataset,
    save_expert_dataset,
    write_training_log,
)
from .backtest import (
    evaluate_profit_metrics,
    export_annotated_series,
    make_report,
    render_report,
    run_backtest,
    save_report_json,
)
from .domains import Checked, Interval, Natural, check, hints
from .env import EnvConfig, TradingEnv
from .errors import DimensionMismatch, DivergenceDetected
from .features import (
    FeatureConfig,
    Normalizer,
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

# The checkpoint entries _read_checkpoint decodes; the other networks (value,
# critic and discriminator nets) are parsed but not decoded.
CHECKPOINT_KEYS = ("kind", "policy", "feature_config", "env_config", "normalizer",
                   "split_fraction", "train_data")


# The keys of a data.synthetic block and their defaults: make_sine_series's
# parameters, but for the interval and symbol, which the run config names.
DEFAULT_SYNTHETIC = {name: param.default
                     for name, param in signature(make_sine_series).parameters.items()
                     if name not in ("interval_ms", "symbol")}


@dataclass
class RunConfig(Checked):
    symbol: str = "ETHUSDT"
    interval: Annotated[str, tuple(INTERVAL_MS)] = "4h"
    # exactly one of csv / fetch / synthetic, kept as written
    data: dict = field(default_factory=lambda: {"synthetic": dict(DEFAULT_SYNTHETIC)})
    split_fraction: Annotated[float, Interval(0, 1, "()")] = 0.95
    algo: Annotated[str, ALGOS] = "ppo"
    seed: Natural = 0
    out: str = "runs/latest"
    features: FeatureConfig = FeatureConfig()
    env: EnvConfig = EnvConfig()
    ppo: PpoConfig = PpoConfig()
    sac: SacConfig = SacConfig()
    gail: GailConfig = GailConfig()


DATA_SOURCES = ("csv", "fetch", "synthetic")
FETCH_KEYS = ("start", "end")


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
    takes an object, walked by ``_block``; ``domains.check`` does the rest.
    """
    args = get_args(hint)
    if type(None) in args:  # X | None
        return None if value is None else _value(args[0], value, name)
    if get_origin(hint) is Annotated:
        return check(hint, _value(hint.__origin__, value, name), name)
    if is_dataclass(hint):
        return _block(hint, value, name)
    if get_origin(hint) is tuple:
        if type(value) is list:
            return tuple(_value(args[0], item, f"{name}[{i}]") for i, item in enumerate(value))
        raise ValueError(f"{name} must be a list, got {value!r}")
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
    return cls(**{**defaults, **_values(hints(cls), block, where)})


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
        fetch = _values(dict.fromkeys(FETCH_KEYS, str), data["fetch"], "data.fetch")
        try:
            start, end = (_date_ms(fetch[key]) for key in FETCH_KEYS)
        except KeyError as err:
            raise ValueError(f"data.fetch must give both start and end; missing {err}") from None
        except ValueError as err:
            raise ValueError(f"data.fetch dates must be ISO dates: {err}") from None
        if not start < end:
            raise ValueError(f"data.fetch.start {fetch['start']} is not before its end")
    if "synthetic" in data:
        sine = hints(make_sine_series)
        _values({key: sine[key] for key in DEFAULT_SYNTHETIC}, data["synthetic"],
                "data.synthetic")
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
    _check_keys(raw, hints(RunConfig), "config")
    config = _block(RunConfig, {k: v for k, v in raw.items() if k not in ("data", "env")},
                    "config")
    if "data" in raw:
        config.data = _check_data(raw["data"])
    config.env = _block(EnvConfig, raw.get("env", {}), "env", window=config.features.window)
    config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    if config.env.window != config.features.window:
        raise ValueError(
            f"env window {config.env.window} != feature window {config.features.window}"
        )
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


def resolve_series(config: RunConfig) -> KlineSeries:
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
    series = BinanceClient().fetch_klines(
        config.symbol, config.interval, key["start_ms"], key["end_ms"])
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
    # --force fetches again: the key goes now, the CSV only when new bars replace it
    key_path.unlink(missing_ok=True)
    series = resolve_series(config)
    if "fetch" not in config.data:  # a fetch source saved its cache already
        dest.parent.mkdir(parents=True, exist_ok=True)
        save_klines_csv(series, dest)
    _echo_config(config)
    print(f"wrote {dest}: {_series_summary(series)}")
    return EXIT_OK


def prepare(config: RunConfig,
            normalizer: Normalizer | None = None) -> tuple[TradingEnv, TradingEnv, Normalizer]:
    """The run's train env, its test env and the normalizer both read.

    Features are built over the full series; without a ``normalizer`` the
    statistics come from the train rows past the warm-up. The train episode
    runs from the first full window to the split, the test episode from the
    split to the last bar, so a split that leaves either too short is refused.
    """
    series = resolve_series(config)
    n_train = len(split_train_test(series, config.split_fraction)[0])
    matrix = build_feature_matrix(series, config.features)
    if normalizer is None:
        normalizer = fit_normalizer(matrix, range(matrix.valid_from, n_train))
    matrix = normalize(matrix, normalizer)
    first_t = matrix.valid_from + config.env.window - 1

    def env(part: str, episode: range) -> TradingEnv:
        try:
            return TradingEnv(series, matrix, config.env, episode)
        except ValueError as exc:
            raise type(exc)(f"{part} split: {exc}") from None

    return (env("train", range(first_t, n_train)), env("test", range(n_train, len(series))),
            normalizer)


def _train_data(train_env: TradingEnv) -> dict:
    """The train bars' count and the sha256 of their six arrays' little-endian bytes.

    The source is left out: the same bars read from another path are the
    same training data.
    """
    n_train = train_env.episode.stop
    open_times, *values = train_env.series[:n_train].columns()
    digest = hashlib.sha256(open_times.astype("<i8").tobytes())
    for column in values:
        digest.update(column.astype("<f8").tobytes())
    return {"n_train": n_train, "sha256": digest.hexdigest()}


def _checkpoint_payload(config: RunConfig, normalizer: Normalizer,
                        train_env: TradingEnv) -> dict:
    return {
        "symbol": config.symbol,
        "interval": config.interval,
        "split_fraction": config.split_fraction,
        "seed": config.seed,
        "feature_config": asdict(config.features),
        "env_config": asdict(config.env),
        "normalizer": normalizer_to_json(normalizer),
        "train_data": _train_data(train_env),
    }


def cmd_train(config: RunConfig, force: bool) -> int:
    out = Path(config.out)
    ckpt_path = out / "checkpoints" / f"{config.algo}.json"
    block = getattr(config, config.algo)
    for name, floor in UPDATE_FLOORS[config.algo]:
        if getattr(block, name) < getattr(block, floor):
            print(f"invalid configuration: {config.algo}.{name} {getattr(block, name)} is "
                  f"below {config.algo}.{floor} {getattr(block, floor)}: {config.algo} "
                  f"would train no update", file=sys.stderr)
            return EXIT_MISSING
    if ckpt_path.exists() and not force:
        print(f"refusing to overwrite {ckpt_path} (use --force)", file=sys.stderr)
        return EXIT_REFUSED
    if config.algo == "gail" and not (out / "checkpoints" / "ppo.json").exists():
        # GAIL's expert is the one `train --algo ppo` writes, so that command trains it
        code = cmd_train(replace(config, algo="ppo"), force)
        if code != EXIT_OK:
            return code
    train_env, _, normalizer = prepare(config)
    rng = np.random.default_rng(config.seed)
    base = _checkpoint_payload(config, normalizer, train_env)
    ckpt_path.parent.mkdir(parents=True, exist_ok=True)
    (out / "logs").mkdir(parents=True, exist_ok=True)
    _echo_config(config)
    train = getattr(agents, f"{config.algo}_train")
    try:
        # numpy's overflow warnings stay silent: a run that goes non-finite
        # is reported once, by the divergence guard.
        with np.errstate(all="ignore"):
            if config.algo == "gail":
                train = partial(train, expert=_expert_dataset(config, base, train_env))
            result = train(train_env, config=block, rng=rng)
    except DivergenceDetected as exc:
        crash_path = out / "checkpoints" / f"{config.algo}_diverged.json"
        save_checkpoint(crash_path, config.algo, {**base, **exc.artifacts})
        print(f"training diverged: {exc}; state saved to {crash_path}", file=sys.stderr)
        return EXIT_RUNTIME
    save_checkpoint(ckpt_path, config.algo,
                    {**base, "train_config": asdict(block), **result.networks_json()})
    write_training_log(result.history, out / "logs" / f"{config.algo}_train.csv")
    print(f"wrote {ckpt_path}")
    return EXIT_OK


def _expert_dataset(config: RunConfig, base: dict, train_env: TradingEnv) -> ExpertDataset:
    """GAIL's expert pairs, from the PPO checkpoint in ``out``.

    The expert is read as ``backtest`` reads a checkpoint, and refused when
    it saw other features, another normalizer or other train bars than this
    run: its observations would mean something else.
    """
    out = Path(config.out)
    ppo_ckpt = out / "checkpoints" / "ppo.json"
    _, policy, run, normalizer, train_data = _read_checkpoint(ppo_ckpt, config)
    for key, value in (("feature_config", asdict(run.features)),
                       ("normalizer", normalizer_to_json(normalizer))):
        if value != base[key]:
            raise ValueError(f"expert {ppo_ckpt} was trained with another {key} "
                             f"than this run; remove it or train with --out elsewhere")
    _check_train_data(ppo_ckpt, train_data, base["train_data"])
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


def _check_train_data(path: Path, stored, expected: dict) -> None:
    """Refuse a checkpoint whose ``train_data`` is not the ``_train_data`` of this run."""
    if stored != expected:
        raise ValueError(f"checkpoint {path} was trained on other data than this config names")


def _read_checkpoint(path: Path, config: RunConfig
                     ) -> tuple[str, GaussianPolicy, RunConfig, Normalizer, dict]:
    """The checkpoint's algorithm, policy, ``config`` with its features, env
    and split, and normalizer, each checked by the config's rules, and its
    ``train_data`` as stored, for ``_check_train_data``.

    ``kind`` names report files, so it must name an algorithm. A policy with a
    non-finite parameter is refused: a NaN mean reads as "hold" on every bar,
    so a backtest would pass it for a report and GAIL would imitate it.
    """
    doc = load_checkpoint(path, CHECKPOINT_KEYS)
    where = f"checkpoint {path}"
    algo = check(hints(RunConfig)["algo"], doc["kind"], f"{where} kind")
    policy = _decode(path, doc, "policy", GaussianPolicy.from_json)
    if not np.isfinite(policy.params()).all():
        raise ValueError(f"{where} has a policy with non-finite parameters")
    run = replace(
        config,
        features=_block(FeatureConfig, doc["feature_config"], f"{where} feature_config"),
        env=_block(EnvConfig, doc["env_config"], f"{where} env_config"),
        split_fraction=_value(hints(RunConfig)["split_fraction"], doc["split_fraction"],
                              f"{where} split_fraction"),
    )
    normalizer = _decode(path, doc, "normalizer", normalizer_from_json)
    return algo, policy, run, normalizer, doc["train_data"]


def cmd_backtest(config: RunConfig, checkpoint: str | None, force: bool) -> int:
    out = Path(config.out)
    ckpt_path = Path(checkpoint) if checkpoint else out / "checkpoints" / f"{config.algo}.json"
    if not ckpt_path.exists():
        raise FileNotFoundError(f"checkpoint not found: {ckpt_path}")
    algo, policy, run, normalizer, train_data = _read_checkpoint(ckpt_path, config)
    report_path = out / "reports" / f"{algo}_report.json"
    if report_path.exists() and not force:
        print(f"refusing to overwrite {report_path} (use --force)", file=sys.stderr)
        return EXIT_REFUSED
    train_env, test_env, _ = prepare(run, normalizer=normalizer)
    _check_train_data(ckpt_path, train_data, _train_data(train_env))
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
    open_times = test_env.series.open_times[test_env.episode.start:test_env.episode.stop]
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
        report = make_report(**{name: _value(hint, doc[name], name)
                                for name, hint in hints(make_report).items() if name != "return"})
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
    except OSError as exc:  # a missing config file or one that cannot be read
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
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
