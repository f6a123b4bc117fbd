"""Tests for ingestion, tokenization, encoding, and the synthetic generator."""

import json

import pytest

from gradsel.corpus import (
    Instance,
    SynthSpec,
    Tokenizer,
    build_vocab,
    encode_instance,
    load_dataset,
    save_dataset,
    split_words,
    synth_corpus,
)
from gradsel.pipeline import RunConfig


def _write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def test_load_direct_field_mapping(tmp_path):
    p = tmp_path / "d.jsonl"
    _write_jsonl(p, [{"instruction": "Q", "output": "A"}])
    ds = load_dataset(str(p))
    assert len(ds) == 1
    assert ds[0].prompt == "Q"
    assert ds[0].response == "A"
    assert ds[0].id == "000001"
    assert ds[0].stratum is None


def test_load_joins_input_with_newline(tmp_path):
    p = tmp_path / "d.jsonl"
    _write_jsonl(p, [{"instruction": "Q", "input": "ctx", "output": "A"}])
    assert load_dataset(str(p))[0].prompt == "Q\nctx"


def test_load_empty_file(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text("")
    assert load_dataset(str(p)) == []


def test_load_missing_output_names_line(tmp_path):
    p = tmp_path / "d.jsonl"
    _write_jsonl(
        p,
        [
            {"instruction": "a", "output": "x"},
            {"instruction": "b", "output": "y"},
            {"instruction": "c"},
        ],
    )
    with pytest.raises(ValueError, match="line 3: missing field output"):
        load_dataset(str(p))


def test_load_malformed_json_names_line(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text('{"instruction":"a","output":"x"}\n{oops\n')
    with pytest.raises(ValueError, match="line 2"):
        load_dataset(str(p))


def test_load_duplicate_id_rejected(tmp_path):
    p = tmp_path / "d.jsonl"
    _write_jsonl(
        p,
        [
            {"id": "x", "instruction": "a", "output": "1"},
            {"id": "x", "instruction": "b", "output": "2"},
        ],
    )
    with pytest.raises(ValueError, match="duplicate id"):
        load_dataset(str(p))


def test_load_duplicate_integer_id_rejected(tmp_path):
    p = tmp_path / "d.jsonl"
    _write_jsonl(
        p,
        [
            {"id": 5, "instruction": "a", "output": "1"},
            {"id": 5, "instruction": "b", "output": "2"},
        ],
    )
    with pytest.raises(ValueError, match="line 2: duplicate id '5'"):
        load_dataset(str(p))


def test_load_explicit_id_colliding_with_line_number_rejected(tmp_path):
    p = tmp_path / "d.jsonl"
    _write_jsonl(
        p,
        [
            {"id": "000002", "instruction": "a", "output": "1"},
            {"instruction": "b", "output": "2"},
        ],
    )
    with pytest.raises(ValueError, match="line 2: duplicate id '000002'"):
        load_dataset(str(p))


@pytest.mark.parametrize("bad, message", [
    ('[1, 2]', "line 2: not a JSON object"),
    ('"text"', "line 2: not a JSON object"),
    ('{"instruction": 5, "output": "x"}', "line 2: field instruction is not a string"),
    ('{"instruction": "a", "input": ["ctx"], "output": "x"}',
     "line 2: field input is not a string"),
    ('{"instruction": "a", "output": {"text": "x"}}', "line 2: field output is not a string"),
])
def test_load_rejects_wrong_types_naming_the_line(tmp_path, bad, message):
    p = tmp_path / "d.jsonl"
    p.write_text('{"instruction": "a", "output": "x"}\n' + bad + "\n")
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_dataset(str(p))


def test_load_empty_response_rejected(tmp_path):
    p = tmp_path / "d.jsonl"
    _write_jsonl(p, [{"instruction": "a", "output": ""}])
    with pytest.raises(ValueError, match="output"):
        load_dataset(str(p))


def test_save_load_round_trip(tmp_path):
    ds = [
        Instance("a1", "first prompt", "first response", "domain"),
        Instance("a2", "second\nprompt", "resp", None),
    ]
    p = tmp_path / "out.jsonl"
    save_dataset(ds, str(p))
    assert load_dataset(str(p)) == ds


def test_split_words_lowercases_and_separates_punctuation():
    assert split_words("Hello, World!") == ["hello", ",", "world", "!"]
    assert split_words("a  b\tc") == ["a", "b", "c"]
    assert split_words("") == []


def test_build_vocab_frequency_then_lexicographic():
    ds = [Instance("1", "a b", "a"), Instance("2", "c", "b")]
    tok = build_vocab(ds, max_vocab=8)
    # a: freq 2; b: freq 2; c: freq 1 -> keep top 3, a before b (tie lex)
    assert tok.token_to_id["a"] == 5
    assert tok.token_to_id["b"] == 6
    assert tok.token_to_id["c"] == 7
    assert tok.vocab_size == 8


def test_build_vocab_caps_and_unks():
    ds = [Instance("1", "x x y y z", "w")]
    tok = build_vocab(ds, max_vocab=8)
    # capacity for 3 word types: x, y (freq 2) then w over z (freq tie, lex)
    assert "x" in tok.token_to_id and "y" in tok.token_to_id
    assert "w" in tok.token_to_id
    assert "z" not in tok.token_to_id
    assert tok.encode_words("z") == [Tokenizer.unk]


def test_build_vocab_rejects_small_cap_and_empty():
    with pytest.raises(ValueError):
        build_vocab([Instance("1", "a", "b")], max_vocab=7)
    with pytest.raises(ValueError):
        build_vocab([], max_vocab=100)


def test_specials_distinct_and_fixed():
    tok = build_vocab([Instance("1", "a", "b")], max_vocab=10)
    ids = {tok.pad, tok.bos, tok.eos, tok.sep, tok.unk}
    assert ids == {0, 1, 2, 3, 4}


def test_encode_layout_and_roles():
    tok = build_vocab([Instance("1", "a", "b")], max_vocab=10)
    seq = encode_instance(tok, Instance("1", "a", "b"), max_seq_len=8)
    a, b = tok.token_to_id["a"], tok.token_to_id["b"]
    assert seq.tokens == (tok.bos, a, tok.sep, b, tok.eos)
    assert seq.sep_pos == 2
    assert seq.decode_prompt == (tok.bos, a, tok.sep) and seq.response == (b,)
    assert list(seq.loss_positions) == [2] and seq.measured_positions == [1, 3]


def test_encode_truncates_response_from_right():
    tok = build_vocab([Instance("1", "p", "r s t")], max_vocab=12)
    seq = encode_instance(tok, Instance("1", "p", "r s t"), max_seq_len=5)
    # room for exactly one response token: keep "r", drop "s t"
    assert seq.tokens[-2] == tok.token_to_id["r"]
    assert seq.tokens[-1] == tok.eos
    assert len(seq) == 5
    assert seq.response == (tok.token_to_id["r"],)


def test_encode_empty_prompt_ok():
    tok = build_vocab([Instance("1", "a", "b")], max_vocab=10)
    seq = encode_instance(tok, Instance("1", "", "b"), max_seq_len=8)
    assert seq.tokens == (tok.bos, tok.sep, tok.token_to_id["b"], tok.eos)


def test_encode_rejects_prompt_that_leaves_no_response():
    tok = build_vocab([Instance("1", "a b c d", "e")], max_vocab=12)
    with pytest.raises(ValueError, match="instance too long"):
        encode_instance(tok, Instance("1", "a b c d", "e"), max_seq_len=7)
    # a response of no words leaves none at any length, and is named
    with pytest.raises(ValueError, match="^empty response: 2$"):
        encode_instance(tok, Instance("2", "a", " \t "), max_seq_len=48)


def test_role_partition_property():
    ds = synth_corpus(SynthSpec(20, 20, 20, seed=3))
    tok = build_vocab(ds, max_vocab=256)
    for inst in ds:
        seq = encode_instance(tok, inst, max_seq_len=64)
        assert seq.tokens == seq.decode_prompt + seq.response + (tok.eos,)
        assert seq.tokens.count(tok.sep) == 1


def test_layout_matches_the_per_token_role_rule():
    """Each sequence's positions and tokens against a role per token, at the
    default max_seq_len and at one that truncates responses."""
    ds = synth_corpus(SynthSpec(30, 30, 30, seed=4))
    tok = build_vocab(ds, max_vocab=256)
    words = [(tok.encode_words(i.prompt), tok.encode_words(i.response)) for i in ds]
    shortest = max(len(prompt) for prompt, _ in words) + 4  # keeps every prompt
    for max_seq_len in (RunConfig.max_seq_len, shortest):
        truncated = 0
        for inst, (prompt, response) in zip(ds, words):
            seq = encode_instance(tok, inst, max_seq_len)
            kept = response[: max_seq_len - len(prompt) - 3]
            truncated += len(kept) < len(response)
            roles = (["special"] + ["prompt"] * len(prompt) + ["special"]
                     + ["response"] * len(kept) + ["special"])
            assert seq.tokens == (tok.bos, *prompt, tok.sep, *kept, tok.eos)
            assert list(seq.loss_positions) == [t for t in range(len(seq) - 1)
                                                if roles[t + 1] == "response"]
            assert seq.measured_positions == [t for t, r in enumerate(roles)
                                              if r != "special"]
            # decoding continues the prompt through the special token after it
            assert seq.decode_prompt == seq.tokens[: roles.index("special", 1) + 1]
            assert seq.response == tuple(t for t, r in zip(seq.tokens, roles)
                                         if r == "response")
        assert (truncated > 0) == (max_seq_len == shortest)


def test_decode_round_trip_for_in_vocab_text():
    ds = synth_corpus(SynthSpec(30, 0, 0, seed=5))
    tok = build_vocab(ds, max_vocab=512)
    for inst in ds[:10]:
        seq = encode_instance(tok, inst, max_seq_len=64)
        resp_ids = list(seq.response)
        words = [tok.id_to_token[t] for t in resp_ids]
        assert words == split_words(inst.response)
        assert tok.encode_words(" ".join(words)) == resp_ids


def test_synth_counts_and_strata():
    ds = synth_corpus(SynthSpec(10, 0, 0, seed=1))
    assert len(ds) == 10
    assert all(i.stratum == "domain" for i in ds)
    ds2 = synth_corpus(SynthSpec(4, 3, 2, seed=1))
    assert [i.stratum for i in ds2].count("noise") == 3
    assert [i.stratum for i in ds2].count("trivial") == 2


def test_synth_deterministic_per_seed():
    a = synth_corpus(SynthSpec(25, 25, 25, seed=9))
    b = synth_corpus(SynthSpec(25, 25, 25, seed=9))
    assert a == b
    c = synth_corpus(SynthSpec(25, 25, 25, seed=10))
    assert a != c


def test_synth_trivial_echoes_prompt_phrase():
    from gradsel.corpus import _TRIVIAL_PHRASES

    ds = synth_corpus(SynthSpec(0, 0, 40, seed=2))
    assert len(ds) == 40
    for inst in ds:
        assert inst.response in _TRIVIAL_PHRASES
        assert inst.response in inst.prompt


def test_synth_domain_mapping_is_consistent():
    # the same fused key must always map to the same value within one seed
    from gradsel.corpus import _DIGITS, _KEYS

    fused = {k + d for k in _KEYS for d in _DIGITS}
    ds = synth_corpus(SynthSpec(300, 0, 0, seed=4))
    seen: dict[str, str] = {}
    for inst in ds:
        keys = [w for w in split_words(inst.prompt) if w in fused]
        assert len(keys) == 1
        value = inst.response.split()[-1]
        assert inst.response == f"it maps to {value}"
        assert seen.setdefault(keys[0], value) == value
    # restatement policy: many fewer facts than instances
    assert len(seen) == 38


def test_synth_ids_unique():
    ds = synth_corpus(SynthSpec(50, 50, 50, seed=6))
    assert len({i.id for i in ds}) == len(ds)
