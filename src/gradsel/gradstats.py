"""Collapse each instance's per-token gradients into a scalar record.

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

from .corpus import TokenSequence, _from_json, _json_lines, open_atomic
from .tinylm.model import BackwardResult, Batch


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


def token_vectors(seq: TokenSequence, batch: Batch, res: BackwardResult,
                  b: int) -> tuple[np.ndarray, np.ndarray]:
    """The gradient rows instance b of a batch result is measured by: the
    embedding gradient at each of seq.measured_positions (prompt and
    response), and the logit gradient of every response target with the 1/n
    loss weight divided out, so the rows reflect per-token magnitude rather
    than response length."""
    starts = batch.row_starts
    return res.g_emb[b, seq.measured_positions], res.g_lm[starts[b] : starts[b + 1]] / batch.w[b]


def aggregate_instance(seq: TokenSequence, batch: Batch, res: BackwardResult, b: int,
                       step_index: int, fingerprint: str) -> GradientRecord:
    """One scalar record from instance b's token_vectors: the mean L2 norm of
    each side's rows."""
    emb_vecs, lm_vecs = token_vectors(seq, batch, res, b)
    g_emb = float(np.linalg.norm(emb_vecs, axis=1).mean())
    g_lm = float(np.linalg.norm(lm_vecs, axis=1).mean())
    return GradientRecord(
        instance_id=seq.instance_id,
        g_emb=g_emb,
        g_lm=g_lm,
        g_grads=g_emb + g_lm,
        n_emb_tokens=emb_vecs.shape[0],
        n_lm_tokens=lm_vecs.shape[0],
        model_fingerprint=fingerprint,
        step_index=step_index,
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
