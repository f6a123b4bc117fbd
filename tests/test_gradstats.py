"""Aggregation-rule tests with hand-built batch results."""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from gradsel.corpus import TokenSequence
from gradsel.gradstats import GradientRecord, aggregate_instance, read_records, write_records
from gradsel.tinylm.model import BackwardResult, Batch

FP = "ab" * 8


def _seq(n_prompt, n_response, instance_id="x"):
    """The encoder's layout: BOS, n_prompt words, SEP, n_response words, EOS."""
    tokens = (1,) + (5,) * n_prompt + (3,) + (6,) * n_response + (2,)
    return TokenSequence(instance_id, tokens, 1 + n_prompt)


def _record(seq, g_emb, g_lm, step=-1):
    """The record of seq as a batch of one whose backward pass gave these
    embedding-gradient rows (one per token) and logit-gradient rows (one per
    response target, scaled by the batch's 1/n loss weight)."""
    g_emb = np.asarray(g_emb, dtype=float)
    res = BackwardResult(np.zeros(1), g_emb[None], np.asarray(g_lm, dtype=float), None)
    return aggregate_instance(seq, Batch.of([seq]), res, 0, step, FP)


def test_single_response_token_norm():
    rec = _record(_seq(0, 1), np.zeros((4, 2)), [[-0.5, 0.5]])
    assert rec.g_lm == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert rec.n_lm_tokens == 1


def test_mean_of_norms_is_arithmetic_mean():
    g_emb = np.zeros((5, 3))
    g_emb[1] = [1.0, 0.0, 0.0]       # norm 1
    g_emb[3] = [0.0, 3.0, 0.0]       # norm 3
    rec = _record(_seq(1, 1), g_emb, [[0.1, -0.1]])
    assert rec.g_emb == pytest.approx(2.0)
    assert rec.n_emb_tokens == 2


def test_special_tokens_excluded():
    g_emb = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    rec = _record(_seq(1, 1), g_emb, [[0.2, -0.2]])
    # give BOS, SEP and EOS huge gradients
    g_emb2 = g_emb.copy()
    g_emb2[[0, 2, 4]] = [[9.0, 9.0], [7.0, 7.0], [5.0, 5.0]]
    rec2 = _record(_seq(1, 1), g_emb2, [[0.2, -0.2]])
    assert rec.g_emb == rec2.g_emb == 1.0


def test_weight_divided_out_gives_length_independence():
    row = np.array([0.3, -0.3, 0.0])
    assert Batch.of([_seq(0, 2)]).w[0] == 0.5
    rec2 = _record(_seq(0, 2, "a"), np.zeros((5, 2)), np.stack([row * 0.5] * 2))
    rec4 = _record(_seq(0, 4, "a"), np.zeros((7, 2)), np.stack([row * 0.25] * 4))
    assert rec2.g_lm == pytest.approx(rec4.g_lm, rel=1e-12)
    assert rec2.g_lm == pytest.approx(np.linalg.norm(row), rel=1e-12)


def test_permutation_invariance_within_role():
    rng = np.random.default_rng(0)
    g_emb = rng.normal(size=(7, 4))
    g_lm = rng.normal(size=(2, 5))
    rec = _record(_seq(2, 2), g_emb, g_lm)
    g_emb_swapped = g_emb.copy()
    g_emb_swapped[[1, 2]] = g_emb_swapped[[2, 1]]
    rec2 = _record(_seq(2, 2), g_emb_swapped, g_lm[::-1].copy())
    assert rec.g_emb == pytest.approx(rec2.g_emb, rel=1e-15)
    assert rec.g_lm == pytest.approx(rec2.g_lm, rel=1e-15)


def test_no_content_tokens_rejected():
    # BOS, SEP, EOS: the layout of an empty prompt and a response of no
    # tokens; the sequence itself refuses it, so nothing downstream measures it
    with pytest.raises(ValueError, match="^empty response: x$"):
        _seq(0, 0)


def test_record_invariant_holds_exactly():
    rec = _record(_seq(0, 1), np.ones((4, 2)), [[0.25, -0.25]], step=3)
    assert rec.g_grads == rec.g_emb + rec.g_lm
    assert (rec.step_index, rec.model_fingerprint) == (3, FP)


def _mk_record(i, g_emb, g_lm, fp=FP):
    return GradientRecord(
        instance_id=f"id{i:03d}",
        g_emb=g_emb,
        g_lm=g_lm,
        g_grads=g_emb + g_lm,
        n_emb_tokens=5,
        n_lm_tokens=2,
        model_fingerprint=fp,
        step_index=i,
    )


def test_round_trip_exact(tmp_path):
    rng = np.random.default_rng(1)
    recs = [_mk_record(i, float(rng.uniform(0, 2)), float(rng.uniform(0, 2)))
            for i in range(50)]
    path = str(tmp_path / "recs.jsonl")
    write_records(recs, path)
    assert read_records(path) == recs


def test_read_rejects_broken_sum(tmp_path):
    path = str(tmp_path / "recs.jsonl")
    write_records([_mk_record(0, 0.5, 0.5)], path)
    text = Path(path).read_text().replace('"g_grads": 1', '"g_grads": 1.000001')
    Path(path).write_text(text)
    with pytest.raises(ValueError, match="id000"):
        read_records(path)


def test_read_rejects_duplicate_ids(tmp_path):
    path = str(tmp_path / "recs.jsonl")
    recs = [_mk_record(i, 0.5, 0.25) for i in range(20)] + [_mk_record(3, 0.1, 0.2)]
    write_records(recs, path)
    with pytest.raises(ValueError, match=r"^line 21: duplicate instance_id 'id003'$"):
        read_records(path)


def test_failed_write_leaves_the_old_file(tmp_path):
    path = tmp_path / "recs.jsonl"
    write_records([_mk_record(i, 0.5, 0.25) for i in range(5)], str(path))
    old = path.read_bytes()
    bad = [_mk_record(i, 0.75, 0.25) for i in range(5)]
    bad[3] = _mk_record(3, float("nan"), 0.25)
    with pytest.raises(ValueError, match="non-finite record for id003"):
        write_records(bad, str(path))
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["recs.jsonl"]
