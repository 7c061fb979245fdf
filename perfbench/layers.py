"""The drltrade functions the traced run wraps, and the per-layer metrics.

Layers are drltrade's modules. Every public function or method listed here is
wrapped (see ``spans.Tracer``) under the name ``<module>.<function>`` or
``<module>.<Class>.<method>``; a module's self time is the self time of its
spans. Functions left unwrapped are cheap helpers whose time counts toward
the module of the wrapped function that called them.
"""

from __future__ import annotations

import numpy as np

from drltrade import agents, backtest, cli, env, features, indicators, market_data, neural
from drltrade.agents import buffers, gail, ppo, sac, trpo

MODULES = (
    "cli", "agents", "market_data", "indicators", "features", "env", "neural",
    "buffers", "ppo", "sac", "trpo", "gail", "backtest",
)

FUNCTIONS = {
    cli: ("main", "prepare", "resolve_series"),
    agents: ("write_training_log",),
    market_data: ("load_klines_csv", "save_klines_csv", "parse_klines", "fill_gaps",
                  "split_train_test"),
    indicators: ("sma", "ema", "cci", "rsi", "atr", "dmi", "macd", "bollinger",
                 "true_range", "typical_price", "wilder_smooth"),
    features: ("build_feature_matrix", "fit_normalizer", "normalize", "assemble_observation"),
    neural: ("flatten_params", "unflatten_params", "save_checkpoint", "load_checkpoint"),
    buffers: ("collect_rollout", "compute_gae", "normalize_advantages"),
    ppo: ("ppo_train", "ppo_surrogate", "policy_param_grads"),
    sac: ("sac_train", "sac_update", "sac_actor_grads", "polyak_update", "make_sac_nets"),
    trpo: ("trpo_step", "conjugate_gradient", "fisher_vector_product", "gaussian_kl",
           "surrogate"),
    gail: ("gail_train", "gail_discriminator_update", "discriminator_loss_and_grads",
           "gail_reward", "generate_expert_dataset", "save_expert_dataset"),
    backtest: ("run_backtest", "export_annotated_series", "save_report_json", "render_report"),
}

METHODS = {
    neural.Mlp: ("forward", "forward_cached", "backward", "jvp", "set_params", "to_json"),
    neural.Adam: ("step",),
    neural.GaussianPolicy: ("sample", "mean_action", "log_prob", "log_prob_from_mean",
                            "set_params"),
    env.TradingEnv: ("step", "reset"),
    buffers.ReplayBuffer: ("add", "sample"),
}

B1, BATCH = "neural.forward_b1", "neural.forward_batch"


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _rows(x) -> int:
    return 1 if np.ndim(x) < 2 else int(np.shape(x)[0])


def install(tracer) -> None:
    """Wrap every listed function and method, with the counters they report."""
    counts = tracer.counts
    b1, batch = tracer.name_id(B1), tracer.name_id(BATCH)

    def forward_kind(args, kwargs):
        return b1 if _rows(kwargs.get("x", args[1] if len(args) > 1 else None)) == 1 else batch

    def count_rows(args, kwargs, result):
        rows = _rows(result[0])
        if rows > 1:
            counts["forward_batch.rows"] += rows

    def add(key, fn):
        def after(args, kwargs, result):
            counts[key] += fn(args, kwargs, result)
        return after

    def count_load(args, kwargs, result):
        counts["load.bars"] += len(result)
        counts["market_data.filled_bars"] = len(result.filled_indices)

    hooks = {
        "neural.Mlp.forward_cached": {"classify": forward_kind, "after": count_rows},
        "buffers.collect_rollout": {"after": add("rollout.steps", lambda a, k, r: len(r))},
        "env.TradingEnv.step": {"after": add("env.clamped", lambda a, k, r: r.info.clamped)},
        "trpo.trpo_step": {"after": add("trpo.accepted", lambda a, k, r: r.accepted)},
        "market_data.load_klines_csv": {"after": count_load},
        "market_data.save_klines_csv": {"after": add("save.bars", lambda a, k, r: len(a[0]))},
        "features.build_feature_matrix": {
            "after": add("features.bars", lambda a, k, r: len(a[0]))},
        "backtest.run_backtest": {
            "after": add("backtest.bars", lambda a, k, r: len(a[1].episode))},
        "backtest.export_annotated_series": {
            "after": add("annotated.rows", lambda a, k, r: len(a[0]))},
    }
    for module, names in FUNCTIONS.items():
        for attr in names:
            name = f"{_short(module.__name__)}.{attr}"
            tracer.patch_function(module, attr, name, **hooks.get(name, {}))
    for cls, names in METHODS.items():
        for attr in names:
            name = f"{_short(cls.__module__)}.{cls.__name__}.{attr}"
            tracer.patch_method(cls, attr, name, **hooks.get(name, {}))


# name -> unit, in the order BENCHMARK.json lists them.
METRICS = {
    "neural.forward_b1.us_per_call": "us",
    "neural.forward_batch.us_per_row": "us",
    "neural.GaussianPolicy.sample.us_per_call": "us",
    "neural.backward.us_per_call": "us",
    "neural.jvp.us_per_call": "us",
    "neural.Adam.step.us_per_call": "us",
    "neural.Adam.step.calls": "count",
    "env.step.us_per_call": "us",
    "env.clamp_rate": "ratio",
    "env.trades": "count",
    "features.assemble_observation.us_per_call": "us",
    "features.build_feature_matrix.us_per_bar": "us",
    "features.normalize.ms": "ms",
    "indicators.us_per_bar": "us",
    "market_data.load_klines_csv.us_per_bar": "us",
    "market_data.save_klines_csv.us_per_bar": "us",
    "market_data.filled_bars": "count",
    "buffers.collect_rollout.us_per_step": "us",
    "buffers.compute_gae.us_per_call": "us",
    "buffers.ReplayBuffer.sample.us_per_call": "us",
    "ppo.ppo_surrogate.us_per_call": "us",
    "sac.sac_update.us_per_call": "us",
    "sac.sac_actor_grads.us_per_call": "us",
    "sac.polyak_update.us_per_call": "us",
    "trpo.trpo_step.ms_per_call": "ms",
    "trpo.fisher_vector_product.calls_per_step": "count",
    "trpo.line_search_tries_per_step": "count",
    "trpo.accept_rate": "ratio",
    "gail.gail_discriminator_update.us_per_call": "us",
    "gail.gail_reward.us_per_call": "us",
    "backtest.run_backtest.us_per_bar": "us",
    "backtest.export_annotated_series.us_per_row": "us",
    "cli.prepare.ms": "ms",
    "cli.save_checkpoint.ms": "ms",
    "cli.write_training_log.ms": "ms",
    **{f"{module}.self_share": "ratio" for module in MODULES},
    "trace.overhead": "ratio",
}


def layer_metrics(agg: dict, counts: dict, train_ops: int, trades: int,
                  overhead: float) -> dict:
    """Per-layer values from aggregated spans; a layer never called reads 0."""
    def stat(name):
        return agg.get(name, {"calls": 0, "total_ns": 0.0, "self_ns": 0.0})

    def per(name, divisor, scale):
        total = stat(name)["total_ns"]
        return total / divisor / scale if divisor else 0.0

    def per_call(name, scale=1e3):
        return per(name, stat(name)["calls"], scale)

    def ratio(a, b):
        return a / b if b else 0.0

    module_self = {m: 0.0 for m in MODULES}
    for name, s in agg.items():
        module_self[name.split(".", 1)[0]] += s["self_ns"]
    all_self = sum(module_self.values())
    indicator_ns = module_self["indicators"]
    steps = stat("trpo.trpo_step")["calls"]
    values = {
        "neural.forward_b1.us_per_call": per_call(B1),
        "neural.forward_batch.us_per_row": per(BATCH, counts["forward_batch.rows"], 1e3),
        "neural.GaussianPolicy.sample.us_per_call": per_call("neural.GaussianPolicy.sample"),
        "neural.backward.us_per_call": per_call("neural.Mlp.backward"),
        "neural.jvp.us_per_call": per_call("neural.Mlp.jvp"),
        "neural.Adam.step.us_per_call": per_call("neural.Adam.step"),
        "neural.Adam.step.calls": ratio(stat("neural.Adam.step")["calls"], train_ops),
        "env.step.us_per_call": per_call("env.TradingEnv.step"),
        "env.clamp_rate": ratio(counts["env.clamped"], stat("env.TradingEnv.step")["calls"]),
        "env.trades": trades,
        "features.assemble_observation.us_per_call": per_call("features.assemble_observation"),
        "features.build_feature_matrix.us_per_bar": per(
            "features.build_feature_matrix", counts["features.bars"], 1e3),
        "features.normalize.ms": per_call("features.normalize", 1e6),
        "indicators.us_per_bar": ratio(indicator_ns, counts["features.bars"]) / 1e3,
        "market_data.load_klines_csv.us_per_bar": per(
            "market_data.load_klines_csv", counts["load.bars"], 1e3),
        "market_data.save_klines_csv.us_per_bar": per(
            "market_data.save_klines_csv", counts["save.bars"], 1e3),
        "market_data.filled_bars": counts["market_data.filled_bars"],
        "buffers.collect_rollout.us_per_step": per(
            "buffers.collect_rollout", counts["rollout.steps"], 1e3),
        "buffers.compute_gae.us_per_call": per_call("buffers.compute_gae"),
        "buffers.ReplayBuffer.sample.us_per_call": per_call("buffers.ReplayBuffer.sample"),
        "ppo.ppo_surrogate.us_per_call": per_call("ppo.ppo_surrogate"),
        "sac.sac_update.us_per_call": per_call("sac.sac_update"),
        "sac.sac_actor_grads.us_per_call": per_call("sac.sac_actor_grads"),
        "sac.polyak_update.us_per_call": per_call("sac.polyak_update"),
        "trpo.trpo_step.ms_per_call": per_call("trpo.trpo_step", 1e6),
        "trpo.fisher_vector_product.calls_per_step": ratio(
            stat("trpo.fisher_vector_product")["calls"], steps),
        "trpo.line_search_tries_per_step": ratio(stat("trpo.gaussian_kl")["calls"], steps),
        "trpo.accept_rate": ratio(counts["trpo.accepted"], steps),
        "gail.gail_discriminator_update.us_per_call": per_call("gail.gail_discriminator_update"),
        "gail.gail_reward.us_per_call": per_call("gail.gail_reward"),
        "backtest.run_backtest.us_per_bar": per(
            "backtest.run_backtest", counts["backtest.bars"], 1e3),
        "backtest.export_annotated_series.us_per_row": per(
            "backtest.export_annotated_series", counts["annotated.rows"], 1e3),
        "cli.prepare.ms": per_call("cli.prepare", 1e6),
        "cli.save_checkpoint.ms": per_call("neural.save_checkpoint", 1e6),
        "cli.write_training_log.ms": per_call("agents.write_training_log", 1e6),
        **{f"{m}.self_share": ratio(module_self[m], all_self) for m in MODULES},
        "trace.overhead": overhead,
    }
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in METRICS.items()}
