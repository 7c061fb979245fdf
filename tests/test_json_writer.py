"""write_json: the bytes of json.dumps(sort_keys=True, indent=1) and a newline."""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from drltrade import cli
from drltrade.agents import sac
from drltrade.neural import (
    CHECKPOINT_FORMAT_VERSION,
    GaussianPolicy,
    Mlp,
    load_checkpoint,
    save_checkpoint,
    write_json,
)
from oracles import reference_json
from test_cli import write_config

EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 2.225e-308, 1e308, 0.1]
FLOATS = st.floats() | st.sampled_from(EDGE_FLOATS)
SCALARS = st.one_of(
    FLOATS,
    FLOATS.map(np.float64),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.booleans(),
    st.none(),
    st.text() | st.sampled_from(["", ", ", "a, b"]),  # ", " is the C encoder's separator
)
FLOAT_ROWS = st.lists(FLOATS, min_size=1, max_size=12) | st.lists(
    FLOATS.map(np.float64), max_size=4
)


def documents(depth: int):
    """JSON documents nested up to ``depth`` containers deep."""
    leaves = SCALARS | FLOAT_ROWS
    if depth == 0:
        return leaves
    child = documents(depth - 1)
    return st.one_of(
        leaves,
        st.lists(child, max_size=4),
        st.lists(child, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), child, max_size=4),
    )


@settings(max_examples=300, deadline=None)
@given(documents(5))
def test_matches_stdlib_bytes(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "doc.json"
    write_json(path, doc)
    assert path.read_bytes() == reference_json(doc).encode()


def test_matches_stdlib_on_edge_document(tmp_path):
    doc = {
        "floats": EDGE_FLOATS,
        "mixed": [1, "a, b", None, True, 2.5, [], {}, (3.0, -0.0), [[1.0], [math.nan]]],
        "flat": [1.0, "a, b", 2, None, False],
        "empty": {"list": [], "dict": {}, "tuple": (), "str": ""},
        "scalars": {"f": np.float64(1.5), "big": 10**40, "neg": -7, "false": False},
        "text": "\x00\x1f\t\"\\ é ü   \U0001f600",
        "\x01key é": {"nested": {"deeper": {"deepest": [np.float64(math.inf), 1.0]}}},
    }
    path = tmp_path / "edge.json"
    write_json(path, doc)
    assert path.read_bytes() == reference_json(doc).encode()
    for top in (1.5, math.nan, [], {}, "s", None, [1.0], [[]], 7, (2.0,)):
        write_json(path, top)
        assert path.read_text() == reference_json(top)


def test_checkpoint_at_paper_observation_is_small(tmp_path):
    # 60 bars x 18 features + 2 account entries: about 147k parameters, which
    # took 4 MB as JSON floats and take 8 bytes each as base64 (4/3 x 8 x 147k).
    rng = np.random.default_rng(0)
    obs_dim = 60 * 18 + 2
    payload = {
        "policy": GaussianPolicy(obs_dim, 1, (64, 64), rng).to_json(),
        "value_net": Mlp((obs_dim, 64, 64, 1), rng).to_json(),
    }
    path = tmp_path / "ppo.json"
    save_checkpoint(path, "ppo", payload)
    doc = {"format_version": CHECKPOINT_FORMAT_VERSION, "kind": "ppo", **payload}
    assert path.read_text() == reference_json(doc)
    assert path.stat().st_size < 2_000_000


def test_diverged_sac_checkpoint_with_non_finite_parameters(monkeypatch, tmp_path):
    update = sac.sac_update

    def poisoned_update(nets, *args):
        stats = update(nets, *args)
        nets.policy.params()[:3] = [math.nan, math.inf, -math.inf]
        return stats

    monkeypatch.setattr(sac, "sac_update", poisoned_update)
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "c.json", out, algo="sac")
    assert cli.main(["--config", str(cfg), "train"]) == cli.EXIT_RUNTIME
    path = out / "checkpoints" / "sac_diverged.json"
    with open(path) as fh:
        doc = json.load(fh)
    assert path.read_text() == reference_json(doc)
    theta = GaussianPolicy.from_json(load_checkpoint(path)["policy"]).params()
    assert np.isnan(theta[0]) and theta[1] == math.inf and theta[2] == -math.inf
    assert np.isfinite(theta[3:]).all()
