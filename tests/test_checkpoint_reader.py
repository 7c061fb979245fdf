"""load_checkpoint: json.load's result and refusals, and the entries asked for."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drltrade import cli
from drltrade.neural import CHECKPOINT_FORMAT_VERSION, load_checkpoint, write_json
from test_cli import write_config
from test_json_writer import documents

WRITERS = {
    "write_json": write_json,
    "dumps": lambda path, doc: path.write_text(json.dumps(doc)),
    "compact": lambda path, doc: path.write_text(json.dumps(doc, separators=(",", ":"))),
    "indent2": lambda path, doc: path.write_text(json.dumps(doc, indent=2)),
}

VERSION = CHECKPOINT_FORMAT_VERSION
CHECKPOINT = {
    "format_version": VERSION,
    "kind": "sac",
    "policy": {"sizes": [1, 1], "theta": "AAAAAAAA0D8AAAAAAAAAAAAAAAAAAOC/"},
    "q1": {"sizes": [2, 1], "theta": "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"},
    "log_alpha": [123.456, 7e-05],
}
KEYS = ("kind", "policy")  # "q1" and "log_alpha" are read but not returned


def same(a, b) -> bool:
    """Equal documents, int/float and every float's bits (NaN too) included."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def readers(path):
    """The stdlib reader and load_checkpoint decoding everything or only KEYS."""
    return [
        lambda: json.loads(path.read_text()),
        lambda: load_checkpoint(path),
        lambda: load_checkpoint(path, KEYS),
    ]


@settings(max_examples=200, deadline=None)
@given(
    doc=st.dictionaries(st.text(max_size=6), documents(3), max_size=6),
    writer=st.sampled_from(sorted(WRITERS)),
    data=st.data(),
)
def test_matches_json_load(tmp_path_factory, doc, writer, data):
    doc = {**doc, "format_version": VERSION}
    path = tmp_path_factory.getbasetemp() / "ckpt.json"
    WRITERS[writer](path, doc)
    with open(path) as fh:
        expected = json.load(fh)
    assert same(load_checkpoint(path), expected)
    keys = data.draw(st.lists(st.sampled_from(sorted(expected)), unique=True))
    assert same(load_checkpoint(path, keys), {key: expected[key] for key in keys})


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_reads_a_checkpoint_in_every_layout(tmp_path, writer):
    path = tmp_path / "ckpt.json"
    WRITERS[writer](path, CHECKPOINT)
    assert same(load_checkpoint(path), CHECKPOINT)
    assert same(load_checkpoint(path, KEYS), {key: CHECKPOINT[key] for key in KEYS})


@pytest.mark.parametrize("keys", [None, ("kind",), ("kind", "q1")])
def test_last_duplicate_key_wins(tmp_path, keys):
    path = tmp_path / "ckpt.json"
    path.write_text(f'{{"format_version": {VERSION}, "kind": "ppo", "q1": [1.5], "kind": "sac",'
                    ' "q1": [2.5]}')
    expected = {"format_version": VERSION, "kind": "sac", "q1": [2.5]}
    assert json.loads(path.read_text()) == expected
    doc = load_checkpoint(path, keys)
    assert doc == (expected if keys is None else {key: expected[key] for key in keys})


@pytest.mark.parametrize("number", ["1.2.3", "01", "1.", ".5", "-", "+1", "1e", "1e+", "0x1",
                                    "nan", "Infinity1"])
def test_malformed_number_in_a_skipped_block_is_refused(tmp_path, number):
    path = tmp_path / "ckpt.json"
    write_json(path, CHECKPOINT)
    path.write_text(path.read_text().replace("123.456", number))
    for read in readers(path):
        with pytest.raises(ValueError):
            read()


def test_truncated_file_is_refused(tmp_path):
    path = tmp_path / "ckpt.json"
    write_json(path, CHECKPOINT)
    text = path.read_text()
    for cut in range(len(text.rstrip())):  # every proper prefix of an object
        path.write_text(text[:cut])
        for read in readers(path):
            with pytest.raises(ValueError):
                read()


@pytest.mark.parametrize("tail", ["x", "{}", "1", ",", "}", '"q2": []'])
def test_trailing_data_is_refused(tmp_path, tail):
    path = tmp_path / "ckpt.json"
    write_json(path, CHECKPOINT)
    path.write_text(path.read_text() + tail)
    for read in readers(path):
        with pytest.raises(ValueError):
            read()


@pytest.mark.parametrize("text", ['[{"format_version": 1, "kind": "sac"}]', "1", "null", '"s"',
                                  ""])
def test_top_level_must_be_an_object(tmp_path, text):
    path = tmp_path / "ckpt.json"
    path.write_text(text)
    for read in readers(path)[1:]:
        with pytest.raises(ValueError):
            read()


@pytest.mark.parametrize(
    "text",
    [
        '{"format_version": 1, "kind": "sac",}',
        '{"format_version": 1 "kind": "sac"}',
        '{"format_version" 1, "kind": "sac"}',
        '{"format_version": 1, kind: "sac"}',
        '{"format_version": 1, "kind": }',
        '{"format_version": 1, "kind": "sac", "q1": [1.0,]}',
        '{"format_version": 1, "kind": "sac", "q1": "a\nb"}',
    ],
)
def test_malformed_object_is_refused(tmp_path, text):
    path = tmp_path / "ckpt.json"
    path.write_text(text)
    for read in readers(path):
        with pytest.raises(ValueError):
            read()


def test_format_version_is_checked_when_not_asked_for(tmp_path):
    path = tmp_path / "ckpt.json"
    for version in (1, VERSION + 1, None, str(VERSION)):
        write_json(path, {**CHECKPOINT, "format_version": version})
        for keys in (None, KEYS):
            with pytest.raises(ValueError, match=re.escape(
                    f"format_version {version!r} in {path}; this version reads format {VERSION}")):
                load_checkpoint(path, keys)


def test_missing_key_names_the_file_and_the_key(tmp_path):
    path = tmp_path / "ckpt.json"
    write_json(path, {key: value for key, value in CHECKPOINT.items() if key != "policy"})
    assert load_checkpoint(path, ("kind",)) == {"kind": "sac"}
    with pytest.raises(ValueError, match="'policy'") as err:
        load_checkpoint(path, KEYS)
    assert str(path) in str(err.value)


def test_backtest_refuses_a_corrupt_block_it_does_not_use(tmp_path, capsys):
    """Backtest decodes no critic, but a file with a broken critic block is refused."""
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "c.json", out, algo="sac")
    assert cli.main(["--config", str(cfg), "train"]) == cli.EXIT_OK
    ckpt = out / "checkpoints" / "sac.json"
    doc = json.loads(ckpt.read_text())
    doc["q1"]["sizes"][0] = 123456
    write_json(ckpt, doc)
    ckpt.write_text(ckpt.read_text().replace("123456", "1.2.3"))
    capsys.readouterr()
    assert cli.main(["--config", str(cfg), "backtest"]) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "error: " in err
    assert f"checkpoint {ckpt} is not valid JSON" in err
    assert not (out / "reports").exists()
