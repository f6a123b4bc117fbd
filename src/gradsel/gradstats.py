"""Collapse per-token gradient bundles into per-instance scalar records.

Two scalars per instance: the mean L2 norm of the embedding-layer gradient
over content tokens, and the mean L2 norm of the logit gradient over response
targets with the uniform loss weight divided back out. Their sum is the
selection score downstream modules rank by. Records round-trip through JSONL
with enough digits to be bit-exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .corpus import ROLE_SPECIAL, TokenSequence, _from_json, _json_lines, open_atomic
from .tinylm.training import GradientBundle

NORM_MODES = ("mean_of_norms", "norm_of_mean")


@dataclass(frozen=True)
class GradientRecord:
    instance_id: str
    g_emb: float
    g_lm: float
    g_grads: float
    n_emb_tokens: int
    n_lm_tokens: int
    model_fingerprint: str
    step_index: int


def combine(g_emb: float, g_lm: float) -> float:
    """Plain sum of the two layer magnitudes."""
    if g_emb < 0 or g_lm < 0:
        raise ValueError("gradient magnitudes must be nonnegative")
    return g_emb + g_lm


def token_vectors(bundle: GradientBundle,
                  seq: TokenSequence) -> tuple[np.ndarray, np.ndarray]:
    """The gradient rows an instance is measured by: the embedding gradient
    of every non-special token (prompt and response), and the logit gradient
    of every response target with the 1/n loss weight divided out, so the
    rows reflect per-token magnitude rather than response length."""
    if bundle.g_emb.shape[0] != len(seq):
        raise ValueError(f"bundle/sequence length mismatch for {bundle.instance_id}")
    content = [t for t, role in enumerate(seq.roles) if role != ROLE_SPECIAL]
    if not content:
        raise ValueError(f"no content tokens in {bundle.instance_id}")
    return bundle.g_emb[content], bundle.g_lm / bundle.weight


def aggregate_instance(
    bundle: GradientBundle,
    seq: TokenSequence,
    fingerprint: str,
    norm_mode: str = "mean_of_norms",
) -> GradientRecord:
    """One scalar record from one instance's token_vectors: the mean L2 norm
    of each side's rows. norm_of_mean averages the rows first and takes one
    norm, kept for sensitivity analysis.
    """
    if norm_mode not in NORM_MODES:
        raise ValueError(f"unknown norm_mode {norm_mode!r}")
    emb_vecs, lm_vecs = token_vectors(bundle, seq)
    if norm_mode == "mean_of_norms":
        g_emb = float(np.linalg.norm(emb_vecs, axis=1).mean())
        g_lm = float(np.linalg.norm(lm_vecs, axis=1).mean())
    else:
        g_emb = float(np.linalg.norm(emb_vecs.mean(axis=0)))
        g_lm = float(np.linalg.norm(lm_vecs.mean(axis=0)))
    return GradientRecord(
        instance_id=bundle.instance_id,
        g_emb=g_emb,
        g_lm=g_lm,
        g_grads=combine(g_emb, g_lm),
        n_emb_tokens=emb_vecs.shape[0],
        n_lm_tokens=len(bundle.loss_positions),
        model_fingerprint=fingerprint,
        step_index=bundle.step_index,
    )


def _fmt(x: float) -> str:
    # 17 significant digits: enough for exact float64 round trips
    return format(float(x), ".17g")


def write_records(records: list[GradientRecord], path: str) -> None:
    """Replace path with one JSON line per record; a non-finite record raises
    and leaves path as it was."""
    with open_atomic(path) as fh:
        for r in records:
            if not (np.isfinite(r.g_emb) and np.isfinite(r.g_lm)):
                raise ValueError(f"non-finite record for {r.instance_id}")
            fh.write(
                "{"
                f'"instance_id": {json.dumps(r.instance_id)}, '
                f'"g_emb": {_fmt(r.g_emb)}, '
                f'"g_lm": {_fmt(r.g_lm)}, '
                f'"g_grads": {_fmt(r.g_grads)}, '
                f'"n_emb_tokens": {r.n_emb_tokens}, '
                f'"n_lm_tokens": {r.n_lm_tokens}, '
                f'"model_fingerprint": {json.dumps(r.model_fingerprint)}, '
                f'"step_index": {r.step_index}'
                "}\n"
            )


def read_records(path: str, data: bytes | None = None) -> list[GradientRecord]:
    """Load records (from `data` if given), enforcing exact field types, the
    sum invariant and unique ids. Records are meant for use across models, so
    the model fingerprint each carries is kept but not checked."""
    by_id: dict[str, GradientRecord] = {}
    for lineno, obj in _json_lines(path, data):
        rec = _from_json(GradientRecord, obj, f"line {lineno}")
        if rec.g_emb < 0 or rec.g_lm < 0:
            raise ValueError(f"line {lineno}: negative magnitude in record {rec.instance_id}")
        if rec.g_grads != rec.g_emb + rec.g_lm:
            raise ValueError(f"line {lineno}: record {rec.instance_id}: "
                             "g_grads does not equal g_emb + g_lm")
        if not rec.n_emb_tokens >= rec.n_lm_tokens >= 1:
            raise ValueError(f"line {lineno}: record {rec.instance_id}: bad token counts")
        if rec.instance_id in by_id:
            raise ValueError(f"line {lineno}: duplicate instance_id {rec.instance_id!r}")
        by_id[rec.instance_id] = rec
    return list(by_id.values())
