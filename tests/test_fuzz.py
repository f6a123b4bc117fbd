"""Fuzz the artifact readers: on any malformed input, only ValueError may
escape, so the CLI reports it as an error instead of a traceback."""

import json
import os
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gradsel.corpus import load_dataset
from gradsel.gradstats import GradientRecord, read_records, write_records
from gradsel.pipeline import load_config, read_selection_ids, write_manifest
from gradsel.tinylm import ModelConfig, init_model, load_checkpoint, save_checkpoint


def _json(ints=st.integers()):
    """Arbitrary JSON values: NaN and infinities included, shallow nesting."""
    leaves = (st.none() | st.booleans() | ints | st.floats() | st.text(max_size=6))
    return st.recursive(leaves, lambda kids: st.lists(kids, max_size=3)
                        | st.dictionaries(st.text(max_size=4), kids, max_size=3),
                        max_leaves=6)


@st.composite
def _mutated(draw, base: dict, values=_json()):
    """base with some of its fields dropped or replaced by arbitrary JSON."""
    obj = dict(base)
    for key in draw(st.lists(st.sampled_from(sorted(base)), unique=True)):
        if draw(st.booleans()):
            del obj[key]
        else:
            obj[key] = draw(values)
    return obj


def _jsonl(base: dict):
    """JSONL bytes of one to four lines, each base, base mutated, or any JSON."""
    line = st.one_of(st.just(base), _mutated(base), _json())
    return st.lists(line, min_size=1, max_size=4).map(
        lambda objs: "".join(json.dumps(o) + "\n" for o in objs).encode())


def _rejects_naming_the_line(read, data: bytes):
    try:
        read("fuzz.jsonl", data=data)
    except ValueError as exc:
        assert re.match(r"line \d+: ", str(exc)), exc


_INSTANCE = {"id": "a", "instruction": "Q", "input": "ctx", "output": "A", "stratum": "domain"}
_RECORD = {"instance_id": "a", "g_emb": 0.5, "g_lm": 0.25, "g_grads": 0.75,
           "n_emb_tokens": 3, "n_lm_tokens": 2, "model_fingerprint": "ab" * 8, "step_index": -1}


@settings(max_examples=100, deadline=None)
@given(_jsonl(_INSTANCE))
def test_load_dataset_raises_only_value_errors_naming_the_line(data):
    _rejects_naming_the_line(load_dataset, data)


@settings(max_examples=100, deadline=None)
@given(_jsonl(_RECORD))
def test_read_records_raises_only_value_errors_naming_the_line(data):
    _rejects_naming_the_line(read_records, data)


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=64))
def test_readers_raise_only_value_errors_on_arbitrary_bytes(data):
    for read in (load_dataset, read_records):
        try:
            read("fuzz.bin", data=data)
        except ValueError:
            pass


_SELECTION = {"id": "a", "rank": 1, "f_value": 0.5, "g_grads": 0.75}
_MANIFEST = {"files": {"records.jsonl": "ab" * 32}}


def _config(dataset: str) -> dict:
    return {"dataset": dataset, "out_dir": "out", "seed": 3, "fraction": 50.0,
            "test_fraction": 0.1, "batch_size": 4, "tie_lm_head": False,
            "projection_dim": None}


def _raises_only_value_errors(read, path, data: bytes):
    path.write_bytes(data)
    try:
        read(str(path))
    except ValueError:
        pass


def _any_json_bytes(base: dict):
    """One JSON value as bytes: base, base mutated, or any JSON; or any bytes."""
    value = st.one_of(st.just(base), _mutated(base), _json())
    return value.map(lambda v: json.dumps(v).encode()) | st.binary(max_size=64)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_jsonl(_SELECTION) | st.binary(max_size=64))
def test_read_selection_ids_raises_only_value_errors(tmp_path, data):
    _raises_only_value_errors(read_selection_ids, tmp_path / "selection.jsonl", data)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_load_config_raises_only_value_errors(tmp_path, data):
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text('{"instruction": "a", "output": "x"}\n')
    raw = data.draw(_any_json_bytes(_config(str(dataset))))
    _raises_only_value_errors(load_config, tmp_path / "config.json", raw)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_any_json_bytes(_MANIFEST))
def test_write_manifest_raises_only_value_errors_on_the_old_manifest(tmp_path, data):
    _raises_only_value_errors(lambda path: write_manifest(os.path.dirname(path), []),
                              tmp_path / "manifest.json", data)


def test_read_records_names_the_line_and_field(tmp_path):
    path = str(tmp_path / "records.jsonl")
    write_records([GradientRecord("a", 0.5, 0.25, 0.75, 3, 2, "ab" * 8, -1)], path)
    good = (tmp_path / "records.jsonl").read_text(encoding="utf-8")
    cases = {
        "[1]\n": r"^line 2: not a JSON object$",
        json.dumps({k: v for k, v in _RECORD.items() if k != "g_emb"}) + "\n":
            r"^line 2: missing field g_emb$",
        json.dumps({**_RECORD, "n_lm_tokens": [2]}) + "\n":
            r"^line 2: field n_lm_tokens is not an integer$",
        json.dumps({**_RECORD, "g_lm": "x"}) + "\n": r"^line 2: field g_lm is not a number$",
        json.dumps({**_RECORD, "g_lm": float("nan")}) + "\n":
            r"^line 2: field g_lm is not a number$",
        json.dumps({**_RECORD, "g_emb": 10**400}) + "\n": r"^line 2: field g_emb is not a number$",
        json.dumps({**_RECORD, "step_index": float("inf")}) + "\n":
            r"^line 2: field step_index is not an integer$",
        json.dumps({**_RECORD, "g_lm": 0.5}) + "\n": r"^line 2: record a: g_grads",
    }
    for line, message in cases.items():
        with pytest.raises(ValueError, match=message):
            read_records("fuzz.jsonl", data=(good + line).encode())


@pytest.mark.parametrize("line", [b"\xff{}", b"[" * 100_000], ids=["not_utf8", "deep"])
def test_a_line_that_does_not_decode_is_named(line):
    for read, good in ((load_dataset, _INSTANCE), (read_records, _RECORD)):
        with pytest.raises(ValueError, match=r"^line 2: malformed JSON \("):
            read("fuzz.jsonl", data=json.dumps(good).encode() + b"\n" + line + b"\n")


# Values a converting reader would take: str(5), float(True), int(3.9), int("2"),
# str(None) and int(2.5) all succeed.
@pytest.mark.parametrize("field, value, wanted", [
    ("instance_id", 5, "a string"), ("g_emb", True, "a number"),
    ("n_emb_tokens", 3.9, "an integer"), ("n_lm_tokens", "2", "an integer"),
    ("model_fingerprint", None, "a string"), ("step_index", 2.5, "an integer"),
])
def test_read_records_converts_no_value(field, value, wanted):
    record = {"instance_id": "5", "g_emb": 1.0, "g_lm": 0.0, "g_grads": 1.0,
              "n_emb_tokens": 3, "n_lm_tokens": 2, "model_fingerprint": "ab" * 8,
              "step_index": 2}
    assert read_records("r.jsonl", data=(json.dumps(record) + "\n").encode())
    line = json.dumps({**record, field: value}) + "\n"
    with pytest.raises(ValueError, match=f"^line 1: field {field} is not {wanted}$"):
        read_records("r.jsonl", data=line.encode())


@pytest.mark.parametrize("line, message", [
    ("[1]", "line 2: not a JSON object"),
    ('{"rank": 1}', "line 2: missing field id"),
    ('{"id": [1]}', "line 2: field id is not a string"),
])
def test_read_selection_ids_names_the_line(tmp_path, line, message):
    path = tmp_path / "selection.jsonl"
    path.write_text('{"id": "a", "rank": 1}\n' + line + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_selection_ids(str(path))


@pytest.mark.parametrize("field, value, wanted", [
    ("fraction", "50", "a number"), ("test_fraction", None, "a number"),
    ("seed", "x", "an integer"), ("batch_size", 2.5, "an integer"),
    ("batch_size", True, "an integer"), ("d_model", "32", "an integer"),
])
def test_load_config_names_a_mistyped_field(tmp_path, field, value, wanted):
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text('{"instruction": "a", "output": "x"}\n')
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**_config(str(dataset)), field: value}))
    with pytest.raises(ValueError, match=f": field {field} is not {wanted}$"):
        load_config(str(path))


@pytest.mark.parametrize("field, value, message", [
    ("projection_dim", 0, "projection_dim must be >= 1"),
    ("projection_dim", -3, "projection_dim must be >= 1"),
    ("bm25_aggregate", "sum", "unknown bm25_aggregate 'sum'"),
])
def test_load_config_refuses_an_out_of_range_value(tmp_path, field, value, message):
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text('{"instruction": "a", "output": "x"}\n')
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**_config(str(dataset)), field: value}))
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_config(str(path))


_CKPT_CFG = ModelConfig(4, 1, 2, 4, 6, 3, 0)


@pytest.fixture(scope="module")
def checkpoint_payload(tmp_path_factory):
    path = tmp_path_factory.mktemp("ck") / "ck.json"
    save_checkpoint(init_model(_CKPT_CFG), str(path))
    return json.loads(path.read_text())


# small integers only: a well-typed config of huge dimensions is a valid
# request for a huge model, not a malformed file
_SMALL_JSON = _json(st.integers(-2, 8))


@st.composite
def _mutated_checkpoint(draw, payload):
    obj = dict(payload)
    part = draw(st.sampled_from(["top", "config", "params", "entry", "any"]))
    if part == "any":
        return draw(_SMALL_JSON)
    if part == "top":
        return draw(_mutated(payload, _SMALL_JSON))
    if part == "config":
        obj["config"] = draw(_mutated(payload["config"], _SMALL_JSON))
    elif part == "params":
        obj["params"] = draw(_mutated(payload["params"], _SMALL_JSON))
    else:
        name = draw(st.sampled_from(sorted(payload["params"])))
        entry = payload["params"][name]
        entry_values = _SMALL_JSON | st.text(alphabet="AB=+/", max_size=12)
        obj["params"] = {**payload["params"], name: draw(_mutated(entry, entry_values))}
    return obj


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_load_checkpoint_raises_only_value_errors(tmp_path, checkpoint_payload, data):
    payload = data.draw(_mutated_checkpoint(checkpoint_payload))
    path = tmp_path / "ck.json"
    path.write_text(json.dumps(payload))
    try:
        load_checkpoint(str(path))
    except ValueError:
        pass


def test_load_checkpoint_names_the_fault(tmp_path, checkpoint_payload):
    p = checkpoint_payload
    config = p["config"]
    cases = [
        ([1, 2], "not a model checkpoint"),
        ({k: v for k, v in p.items() if k != "params"}, "checkpoint params is not"),
        ({**p, "config": [4]}, "checkpoint config: not a JSON object"),
        ({**p, "config": {k: v for k, v in config.items() if k != "d_ff"}},
         "checkpoint config: missing field d_ff"),
        ({**p, "config": {**config, "d_model": "4"}},
         "checkpoint config: field d_model is not an integer"),
        ({**p, "config": {**config, "tie_lm_head": 0}},
         "checkpoint config: field tie_lm_head is not a boolean"),
        ({**p, "config": {**config, "extra": 1}}, "checkpoint config: unknown field 'extra'"),
        ({**p, "params": {**p["params"], "emb": {"shape": [6, 4]}}},
         "checkpoint missing parameter emb"),
        ({**p, "params": {**p["params"], "emb": {**p["params"]["emb"], "shape": [4, 6]}}},
         "checkpoint shape mismatch for emb"),
        ({**p, "params": {**p["params"], "emb": {**p["params"]["emb"], "data": "AAAA"}}},
         "checkpoint data size mismatch for emb"),
    ]
    path = tmp_path / "ck.json"
    for payload, message in cases:
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_checkpoint(str(path))
    # a config without its defaulted fields still loads
    path.write_text(json.dumps({**p, "config": {k: v for k, v in config.items()
                                                if k not in ("tie_lm_head", "lm_grad_space")}}))
    assert load_checkpoint(str(path)).cfg == _CKPT_CFG
