"""Comparison selectors: random, BM25, DSIR, RDS, PPL, and LESS-style.

Each baseline returns the same SelectionResult shape as the density selector
so downstream training and evaluation treat all methods uniformly. The
similarity baselines (BM25, DSIR, RDS, LESS) rank candidates against a small
held-out query set; PPL mirrors the density criterion with perplexity in
place of gradient magnitude.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .corpus import TokenSequence
from .gradstats import token_vectors
from .rng import ROLE_GUMBEL, ROLE_PROJECT, ROLE_SELECT, substream
from .selector import (
    SelectionResult,
    descending_order,
    select_by_density,
    selection_from_order,
    subset_size,
)
from .tinylm.model import Model, batches, forward
from .tinylm.training import frozen_gradients

BM25_K1 = 1.2
BM25_B = 0.75
DSIR_BUCKETS = 4096
BM25_AGGREGATES = ("mean", "max")


def select_random(ids: list[str], percent: float, seed: int) -> SelectionResult:
    """Uniform sample without replacement, deterministic per seed."""
    if not ids:
        raise ValueError("no candidates")
    rng = substream(seed, ROLE_SELECT)
    size = subset_size(len(ids), percent)
    picked = rng.sample_without_replacement(len(ids), size)
    scores = np.zeros(len(ids))
    scores[picked] = 1.0
    return selection_from_order("random", percent, ids, picked, scores, seed=seed)


def bm25_scores(candidates: list[list[str]], queries: list[list[str]],
                aggregate: str = "mean") -> np.ndarray:
    """Mean (or max) BM25 of each candidate document against the query set.

    IDF uses the candidate corpus only; query terms count with multiplicity.
    """
    if not candidates or not queries:
        raise ValueError("empty corpus")
    if any(not q for q in queries):
        raise ValueError("empty query terms")
    if aggregate not in BM25_AGGREGATES:
        raise ValueError(f"unknown aggregate {aggregate!r}")
    M = len(candidates)
    df: Counter[str] = Counter()
    for doc in candidates:
        df.update(set(doc))
    avgdl = sum(len(d) for d in candidates) / M
    tfs = [Counter(doc) for doc in candidates]

    idf: dict[str, float] = {}
    for term in {t for q in queries for t in q}:
        d = df.get(term, 0)
        idf[term] = math.log(1.0 + (M - d + 0.5) / (d + 0.5))

    out = np.zeros(M)
    for i, doc in enumerate(candidates):
        if not doc:
            continue
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * len(doc) / avgdl)
        per_query = []
        for q in queries:
            s = 0.0
            for term in q:
                tf = tfs[i].get(term, 0)
                if tf:
                    s += idf[term] * tf * (BM25_K1 + 1.0) / (tf + norm)
            per_query.append(s)
        out[i] = max(per_query) if aggregate == "max" else sum(per_query) / len(per_query)
    return out


def bm25_select(ids: list[str], candidates: list[list[str]],
                queries: list[list[str]], percent: float,
                aggregate: str = "mean") -> SelectionResult:
    scores = bm25_scores(candidates, queries, aggregate=aggregate)
    return selection_from_order("bm25", percent, ids, descending_order(scores), scores)


def _fnv1a(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def ngram_features(tokens: list[str], orders: tuple[int, ...] = (1, 2)) -> list[str]:
    feats = []
    for n in orders:
        for i in range(len(tokens) - n + 1):
            feats.append("\x1f".join(tokens[i : i + n]))
    return feats


def hash_bucket(feature: str, n_buckets: int) -> int:
    return _fnv1a(feature.encode("utf-8")) % n_buckets


def _bucket_counts(doc_buckets: list[list[int]], n_buckets: int) -> np.ndarray:
    flat = [b for buckets in doc_buckets for b in buckets]
    return np.bincount(flat, minlength=n_buckets).astype(np.float64)


def dsir_log_weights(candidates: list[list[str]], target: list[list[str]],
                     n_buckets: int = DSIR_BUCKETS,
                     orders: tuple[int, ...] = (1, 2),
                     smooth_target: bool = True) -> np.ndarray:
    """Per-candidate hashed n-gram importance log-weights ln p/q.

    p is the (optionally add-1 smoothed) target bucket distribution, q the raw
    candidate distribution; raw q is safe because every feature of a candidate
    occurs in the candidate corpus by construction.
    """
    if not candidates or not target:
        raise ValueError("empty corpus")
    bucket_of: dict[str, int] = {}  # each distinct feature is hashed once

    def buckets(doc: list[str]) -> list[int]:
        out = []
        for f in ngram_features(doc, orders):
            b = bucket_of.get(f)
            if b is None:
                b = bucket_of[f] = hash_bucket(f, n_buckets)
            out.append(b)
        return out

    cand_buckets = [buckets(doc) for doc in candidates]
    tc = _bucket_counts([buckets(doc) for doc in target], n_buckets)
    cc = _bucket_counts(cand_buckets, n_buckets)
    if smooth_target:
        p = (tc + 1.0) / (tc.sum() + n_buckets)
    else:
        p = tc / tc.sum()
    q = cc / cc.sum()
    log_ratio: dict[int, float] = {}
    out = np.zeros(len(candidates))
    for i, doc_buckets in enumerate(cand_buckets):
        s = 0.0
        for b in doc_buckets:
            term = log_ratio.get(b)
            if term is None:
                term = log_ratio[b] = math.log(p[b]) - math.log(q[b])
            s += term
        out[i] = s
    return out


def dsir_select(ids: list[str], candidates: list[list[str]],
                target: list[list[str]], percent: float, seed: int,
                n_buckets: int = DSIR_BUCKETS) -> SelectionResult:
    """Importance resampling: Gumbel-top-k over the log-weights."""
    logw = dsir_log_weights(candidates, target, n_buckets=n_buckets)
    rng = substream(seed, ROLE_GUMBEL)
    keys = logw + np.array([rng.gumbel() for _ in range(len(candidates))])
    return selection_from_order("dsir", percent, ids, descending_order(keys), logw, seed=seed)


def _feature_matrix(seqs: list[TokenSequence], rows) -> np.ndarray:
    """The rows stacked into one (len(seqs), dim) array; a non-finite row is
    refused, naming its instance."""
    if not seqs:
        raise ValueError("no sequences to take features of")
    feats = np.vstack(rows)
    bad = np.flatnonzero(~np.isfinite(feats).all(axis=1))
    if bad.size:
        raise ValueError(f"non-finite features for {seqs[bad[0]].instance_id}")
    return feats


def representation_features(model: Model, seqs: list[TokenSequence]) -> np.ndarray:
    """Final-layer hidden state at each sequence's last position, one row per
    sequence."""
    blocks = []
    for _, batch in batches(seqs):
        trace = forward(model, batch, last_only=True)
        blocks.append(trace.hf[trace.rows])
    return _feature_matrix(seqs, blocks)


def _mean_token_vectors(bundle, seq) -> np.ndarray:
    emb_vecs, lm_vecs = token_vectors(bundle, seq)
    return np.concatenate([emb_vecs.mean(axis=0), lm_vecs.mean(axis=0)])


def gradient_features(model: Model, seqs: list[TokenSequence]) -> np.ndarray:
    """Concatenated mean embedding-gradient (d) and mean logit-gradient (V) of
    each sequence's token_vectors, one row per sequence.

    The logit rows have the uniform loss weight divided out, so feature
    direction does not depend on response length.
    """
    return _feature_matrix(seqs, frozen_gradients(model, seqs, _mean_token_vectors))


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        return 0.0
    return float(u @ v / (nu * nv))


def rds_select(ids: list[str], cands: np.ndarray, queries: np.ndarray,
               percent: float) -> SelectionResult:
    """Mean cosine of each candidate row to the query rows; zero-norm
    candidates last."""
    if cands.shape != (len(ids), queries.shape[-1]):
        raise ValueError(f"feature width mismatch: {len(ids)} ids, candidates "
                         f"{cands.shape}, queries {queries.shape}")
    usable = [q for q in queries if np.linalg.norm(q) > 0]
    if not usable:
        raise ValueError("all query features have zero norm")
    scores = np.empty(len(ids))
    for i, f in enumerate(cands):
        if np.linalg.norm(f) == 0:
            scores[i] = -1.0
        else:
            scores[i] = float(np.mean([_cosine(f, q) for q in usable]))
    return selection_from_order("rds", percent, ids, descending_order(scores), scores)


def sign_projection(dim_in: int, dim_out: int, seed: int) -> np.ndarray:
    """Random {-1,+1}/sqrt(dim_out) matrix from the seeded stream."""
    rng = substream(seed, ROLE_PROJECT)
    signs = np.array([1.0 if rng.random() < 0.5 else -1.0
                      for _ in range(dim_in * dim_out)])
    return signs.reshape(dim_in, dim_out) / math.sqrt(dim_out)


def less_select(ids: list[str], cands: np.ndarray, queries: np.ndarray, percent: float,
                projection_dim: int | None, seed: int) -> SelectionResult:
    """Max cosine of each candidate row to the query rows, in sign-projected
    space."""
    if not len(queries) or cands.shape != (len(ids), queries.shape[-1]):
        raise ValueError(f"feature width mismatch: {len(ids)} ids, candidates "
                         f"{cands.shape}, queries {queries.shape}")
    dim = cands.shape[1]
    if projection_dim is not None and not 1 <= projection_dim <= dim:
        raise ValueError(f"projection_dim must lie in [1, {dim}]")
    if projection_dim is not None and projection_dim != dim:
        proj = sign_projection(dim, projection_dim, seed)
        cands, queries = cands @ proj, queries @ proj
    scores = np.empty(len(ids))
    for i in range(len(ids)):
        scores[i] = max(_cosine(cands[i], queries[j]) for j in range(queries.shape[0]))
    return selection_from_order("less", percent, ids, descending_order(scores), scores, seed=seed)


def ppl_select(ids: list[str], perplexities: list[float], percent: float) -> SelectionResult:
    """Density criterion over perplexities instead of gradient magnitudes."""
    ppl = np.asarray(perplexities, dtype=float)
    if ppl.size == 0:
        raise ValueError("no perplexities")
    if np.any(ppl <= 0):
        raise ValueError("perplexities must be positive")
    return select_by_density(ppl, list(ids), percent, "ppl")


def sequence_perplexities(model: Model, seqs: list[TokenSequence]) -> list[float]:
    """exp(mean response-token cross-entropy) of each sequence."""
    out: list[float] = []
    for _, batch in batches(seqs):
        out += map(math.exp, forward(model, batch).losses.tolist())
    return out
