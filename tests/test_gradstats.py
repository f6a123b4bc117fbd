"""Aggregation-rule tests with hand-built bundles."""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from gradsel.corpus import TokenSequence
from gradsel.gradstats import (
    GradientRecord,
    aggregate_instance,
    combine,
    read_records,
    write_records,
)
from gradsel.tinylm.training import GradientBundle

FP = "ab" * 8


def _bundle(instance_id, g_emb, g_lm, loss_positions, weight, step=-1):
    return GradientBundle(
        instance_id=instance_id,
        g_emb=np.asarray(g_emb, dtype=float),
        g_lm=np.asarray(g_lm, dtype=float),
        loss_positions=loss_positions,
        weight=weight,
        loss=0.0,
        step_index=step,
    )


def _seq(roles, instance_id="x"):
    return TokenSequence(instance_id, tuple(range(len(roles))), tuple(roles))


def test_single_response_token_norm():
    seq = _seq(["special", "response", "special"])
    b = _bundle("x", np.zeros((3, 2)), [[-0.5, 0.5]], [0], weight=1.0)
    rec = aggregate_instance(b, seq, FP)
    assert rec.g_lm == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert rec.n_lm_tokens == 1


def test_mean_of_norms_is_arithmetic_mean():
    seq = _seq(["special", "prompt", "response", "special"])
    g_emb = np.zeros((4, 3))
    g_emb[1] = [1.0, 0.0, 0.0]       # norm 1
    g_emb[2] = [0.0, 3.0, 0.0]       # norm 3
    b = _bundle("x", g_emb, [[0.1, -0.1]], [1], weight=1.0)
    rec = aggregate_instance(b, seq, FP)
    assert rec.g_emb == pytest.approx(2.0)
    assert rec.n_emb_tokens == 2


def test_special_tokens_excluded():
    roles = ["special", "prompt", "response", "special"]
    g_emb = np.array([[9.0, 9.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
    b = _bundle("x", g_emb, [[0.2, -0.2]], [1], weight=1.0)
    rec = aggregate_instance(b, _seq(roles), FP)
    # pad the sequence with more specials carrying huge gradients
    roles2 = roles + ["special", "special"]
    g_emb2 = np.vstack([g_emb, [[7.0, 7.0], [8.0, 8.0]]])
    b2 = _bundle("x", g_emb2, [[0.2, -0.2]], [1], weight=1.0)
    rec2 = aggregate_instance(b2, _seq(roles2), FP)
    assert rec.g_emb == rec2.g_emb


def test_weight_divided_out_gives_length_independence():
    seq2 = _seq(["special", "response", "response", "special"])
    row = np.array([0.3, -0.3, 0.0])
    b2 = _bundle("a", np.zeros((4, 2)), np.stack([row * 0.5] * 2), [0, 1], weight=0.5)
    rec2 = aggregate_instance(b2, seq2, FP)
    seq4 = _seq(["special"] + ["response"] * 4 + ["special"])
    b4 = _bundle("a", np.zeros((6, 2)), np.stack([row * 0.25] * 4), [0, 1, 2, 3], weight=0.25)
    rec4 = aggregate_instance(b4, seq4, FP)
    assert rec2.g_lm == pytest.approx(rec4.g_lm, rel=1e-12)
    assert rec2.g_lm == pytest.approx(np.linalg.norm(row), rel=1e-12)


def test_norm_of_mean_switch():
    seq = _seq(["special", "prompt", "prompt", "special"])
    g_emb = np.zeros((4, 2))
    g_emb[1] = [1.0, 0.0]
    g_emb[2] = [-1.0, 0.0]
    b = _bundle("x", g_emb, [[0.1, -0.1]], [1], weight=1.0)
    mean_norms = aggregate_instance(b, seq, FP, norm_mode="mean_of_norms")
    norm_mean = aggregate_instance(b, seq, FP, norm_mode="norm_of_mean")
    assert mean_norms.g_emb == pytest.approx(1.0)
    assert norm_mean.g_emb == pytest.approx(0.0)
    with pytest.raises(ValueError, match="norm_mode"):
        aggregate_instance(b, seq, FP, norm_mode="median")


def test_permutation_invariance_within_role():
    roles = ["special", "prompt", "prompt", "response", "response", "special"]
    rng = np.random.default_rng(0)
    g_emb = rng.normal(size=(6, 4))
    g_lm = rng.normal(size=(2, 5))
    b = _bundle("x", g_emb, g_lm, [2, 3], weight=0.5)
    rec = aggregate_instance(b, _seq(roles), FP)
    g_emb_swapped = g_emb.copy()
    g_emb_swapped[[1, 2]] = g_emb_swapped[[2, 1]]
    b2 = _bundle("x", g_emb_swapped, g_lm[::-1].copy(), [2, 3], weight=0.5)
    rec2 = aggregate_instance(b2, _seq(roles), FP)
    assert rec.g_emb == pytest.approx(rec2.g_emb, rel=1e-15)
    assert rec.g_lm == pytest.approx(rec2.g_lm, rel=1e-15)


def test_no_content_tokens_rejected():
    b = _bundle("x", np.zeros((2, 2)), [[0.1, -0.1]], [0], weight=1.0)
    with pytest.raises(ValueError, match="content"):
        aggregate_instance(b, _seq(["special", "special"]), FP)


def test_combine_rules():
    assert combine(0.0, 0.0) == 0.0
    assert combine(0.3, 0.7) == pytest.approx(1.0)
    assert combine(0.2, 0.5) == combine(0.5, 0.2)
    with pytest.raises(ValueError):
        combine(-0.1, 0.5)


def test_record_invariant_holds_exactly():
    seq = _seq(["special", "response", "special"])
    b = _bundle("x", np.ones((3, 2)), [[0.25, -0.25]], [0], weight=1.0)
    rec = aggregate_instance(b, seq, FP)
    assert rec.g_grads == rec.g_emb + rec.g_lm


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
