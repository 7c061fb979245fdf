"""Every leaf of a tiny run config, mutated one at a time through a fixed value set.

A value outside the domain its field declares must exit 2 before anything is
written, and no value may raise out of ``main`` or emit a warning. A run that
exits 0 writes no NaN or Infinity into any artifact. A run may exit 1 when a
library function refuses its data or the divergence guard stops training.
"""

import json
import math
import re
import warnings
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Annotated, get_args, get_origin

import pytest

from drltrade import cli
from drltrade.domains import Interval, hints
from drltrade.synthetic import make_sine_series

TINY = {
    "symbol": "SINE",
    "interval": "4h",
    "data": {"synthetic": {**cli.DEFAULT_SYNTHETIC, "n_bars": 80}},
    "split_fraction": 0.8,
    "algo": "ppo",
    "seed": 0,
    "out": "run",
    "features": {"window": 4, "columns": ["close", "return"]},
    "env": {"window": 4},
    "ppo": {"total_timesteps": 64, "n_steps": 16, "n_epochs": 2, "hidden": [8]},
    "sac": {"total_timesteps": 40, "buffer_size": 64, "batch_size": 16, "learning_starts": 8,
            "log_every": 8, "hidden": [8]},
    "gail": {"total_timesteps": 32, "horizon": 16, "n_expert_episodes": 2, "hidden": [8]},
}

# 0, -1, NaN, the infinities, a huge float, a type no field takes, and lists.
VALUES = [0, -1, math.nan, math.inf, -math.inf, 1e308, True, [], [0]]

NON_FINITE = re.compile(r"(?<![A-Za-z])(NaN|Infinity|nan|inf)(?![A-Za-z])")


def resolved() -> dict:
    """TINY with every field written out, as ``config_resolved.json`` holds it."""
    return json.loads(json.dumps(asdict(cli._block(cli.RunConfig, TINY, "config"))))


def leaves(doc: dict, declared: dict, path=()):
    """(path, hint) of each value under ``doc`` that is not an object, and of each
    item of a list, with the annotation that declares it."""
    for key, value in doc.items():
        hint = declared[key]
        if key == "data":
            yield from leaves(value["synthetic"], hints(make_sine_series), ("data", "synthetic"))
        elif is_dataclass(hint):
            yield from leaves(value, hints(hint), (*path, key))
        else:
            yield (*path, key), hint
            if isinstance(value, list):
                items = hint.__origin__ if get_origin(hint) is Annotated else hint
                yield from (((*path, key, i), get_args(items)[0]) for i in range(len(value)))


def mutated(doc: dict, path: tuple, value) -> dict:
    """``doc`` with the leaf at ``path`` set to ``value``; a leaf of an algorithm's
    block selects that algorithm."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    if path[0] in cli.ALGOS:
        doc["algo"] = path[0]
    return doc


def in_domain(hint, value, name: str) -> bool:
    try:
        cli._value(hint, value, name)
    except ValueError:
        return False
    return True


LEAVES = list(leaves(resolved(), hints(cli.RunConfig)))
CASES = [(path, hint, value) for path, hint in LEAVES for value in VALUES]


def test_every_leaf_is_mutated():
    paths = {path for path, _ in LEAVES}
    assert {("seed",), ("data", "synthetic", "period"), ("features", "columns", 1),
            ("env", "max_buy_amount"), ("gail", "hidden", 0)} <= paths
    assert len(paths) == 63


def readme_fields() -> dict:
    """Each field the README's field table names, with the domain cell of its row."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    fields = {}
    for line in readme.read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 3:
            fields.update(dict.fromkeys(re.findall(r"`([^`]+)`", cells[0]), cells[2]))
    return fields


def intervals(hint):
    """The Interval domains ``hint`` declares, through ``X | None``."""
    if get_origin(hint) is Annotated:
        return [domain for domain in hint.__metadata__ if isinstance(domain, Interval)]
    return [domain for arg in get_args(hint) for domain in intervals(arg)]


def test_readme_field_table_matches_the_code():
    """Every leaf is named in the README table, its row printing each interval it is checked
    against; a list item's interval is on its list's row."""
    fields = readme_fields()
    for path, hint in LEAVES:
        name = ".".join(key for key in path if isinstance(key, str))
        assert name in fields, f"README field table does not name {name}"
        for domain in intervals(hint):
            assert str(domain) in fields[name], f"{name}: {fields[name]!r} lacks {domain}"
    for key in cli.FETCH_KEYS:
        assert f"data.fetch.{key}" in fields


@pytest.mark.parametrize(
    "path,hint,value", CASES,
    ids=[f"{'.'.join(map(str, path))}={json.dumps(value)}" for path, _, value in CASES])
def test_a_mutated_leaf_is_refused_or_runs_clean(tmp_path, monkeypatch, capsys, path, hint,
                                                 value):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps(mutated(resolved(), path, value)))
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["--config", "c.json", "train"])
        if code == cli.EXIT_OK:
            code = cli.main(["--config", "c.json", "backtest"])
    err = capsys.readouterr().err
    if not in_domain(hint, value, ".".join(map(str, path))):
        assert code == cli.EXIT_MISSING and err.startswith("invalid configuration: "), err
        assert not out.exists()
        return
    assert code in (cli.EXIT_OK, cli.EXIT_RUNTIME, cli.EXIT_MISSING), err
    if code == cli.EXIT_MISSING:  # a floor rule: the trainer would run no update
        assert "would train no update" in err and not out.exists()
    if code != cli.EXIT_OK:
        return
    for artifact in out.rglob("*"):
        if artifact.is_file() and not artifact.name.endswith("_diverged.json"):
            match = NON_FINITE.search(artifact.read_text())
            assert match is None, f"{artifact.relative_to(out)}: {match.group()}"
