"""Comparison selectors: random, BM25, DSIR, RDS, PPL, and LESS-style.

Each baseline returns the same SelectionResult shape as the density selector
so downstream training and evaluation treat all methods uniformly. The
similarity baselines (BM25, DSIR, RDS, LESS) rank candidates against a small
held-out query set; PPL mirrors the density criterion with perplexity in
place of gradient magnitude.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from .corpus import TokenSequence
from .gradstats import token_vectors
from .rng import ROLE_GUMBEL, ROLE_SELECT, substream
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
DSIR_ORDERS = (1, 2)


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


def _encode(docs: Iterable[list[str]],
            vocab: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """The words of docs as one flat id array, plus each document's length.

    vocab maps words to ids and gains an id for each word it lacks. Each
    document is consumed as it is encoded, so a generator of word lists
    keeps no list alive past its own turn.
    """
    ids: list[int] = []
    lens: list[int] = []
    add = vocab.setdefault
    for doc in docs:
        start = len(ids)
        ids += [add(w, len(vocab)) for w in doc]
        lens.append(len(ids) - start)
    return np.array(ids, dtype=np.intc), np.array(lens, dtype=np.intc)


def _check_one_score_per_id(ids: list[str], scores: np.ndarray) -> None:
    if len(ids) != len(scores):
        raise ValueError(f"{len(ids)} ids for {len(scores)} candidates")


def bm25_scores(candidates: Iterable[list[str]], queries: Iterable[list[str]]) -> np.ndarray:
    """Mean BM25 of each candidate document against the query set.

    IDF uses the candidate corpus only; query terms count with multiplicity.
    A candidate's score for one query adds its terms in query order.
    """
    vocab: dict[str, int] = {}
    ids, lens = _encode(candidates, vocab)
    query_ids = [[vocab.get(w, -1) for w in q] for q in queries]  # -1: in no candidate
    M = len(lens)
    if not M or not query_ids:
        raise ValueError("empty corpus")
    if any(not q for q in query_ids):
        raise ValueError("empty query terms")
    avgdl = int(lens.sum()) / M

    # One posting list (docs, tf) per distinct query term some candidate has,
    # turned into that term's BM25 contribution to each of its docs.
    pos = np.flatnonzero(np.isin(ids, [t for q in query_ids for t in q]))
    doc = np.searchsorted(np.cumsum(lens), pos, side="right")  # the document holding pos
    keys, tf = np.unique(ids[pos].astype(np.int64) * M + doc, return_counts=True)
    term_of, doc_of = np.divmod(keys, M)
    bounds = np.flatnonzero(np.diff(term_of, prepend=-1, append=-1)).tolist()
    contrib: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for lo, hi in zip(bounds, bounds[1:]):
        docs, t_tf = doc_of[lo:hi], tf[lo:hi]
        d = hi - lo
        idf = math.log(1.0 + (M - d + 0.5) / (d + 0.5))
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * lens[docs] / avgdl)
        contrib[int(term_of[lo])] = docs, idf * t_tf * (BM25_K1 + 1.0) / (t_tf + norm)

    out = np.zeros(M)
    for q in query_ids:
        s = np.zeros(M)
        for term in q:
            if term in contrib:
                docs, c = contrib[term]
                s[docs] += c
        out += s
    return out / len(query_ids)


def bm25_select(ids: list[str], candidates: Iterable[list[str]],
                queries: Iterable[list[str]], percent: float) -> SelectionResult:
    scores = bm25_scores(candidates, queries)
    _check_one_score_per_id(ids, scores)
    return selection_from_order("bm25", percent, ids, descending_order(scores), scores)


def _fnv1a(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def hash_bucket(feature: str) -> int:
    return _fnv1a(feature.encode("utf-8")) % DSIR_BUCKETS


def _ngram_starts(lens: np.ndarray, n: int) -> np.ndarray:
    """The flat positions where an n-gram starts inside its document."""
    inside = np.ones(int(lens.sum()), dtype=bool)
    ends = np.cumsum(lens)
    for k in range(1, n):  # an n-gram cannot start in a document's last n-1 words
        inside[(ends - k)[lens >= k]] = False
    return np.flatnonzero(inside)


def dsir_log_weights(candidates: Iterable[list[str]],
                     target: Iterable[list[str]]) -> np.ndarray:
    """Per-candidate hashed n-gram importance log-weights ln p/q.

    An n-gram's feature is its words joined by U+001F, hashed with FNV-1a
    into one of DSIR_BUCKETS. p is the add-1 smoothed target bucket
    distribution, q the raw candidate distribution; raw q is safe because
    every feature of a candidate occurs in the candidate corpus by
    construction. A candidate's log-weight sums its features' ln p/q in
    order: unigrams by position, then bigrams.
    """
    vocab: dict[str, int] = {}
    (cand_ids, cand_lens), (targ_ids, targ_lens) = (_encode(candidates, vocab),
                                                    _encode(target, vocab))
    if not cand_lens.size or not targ_lens.size:
        raise ValueError("empty corpus")
    words = np.array(list(vocab), dtype=object)
    ids, lens = np.concatenate([cand_ids, targ_ids]), np.concatenate([cand_lens, targ_lens])
    cand_buckets = []  # per order, the bucket of each candidate n-gram
    cc = np.zeros(DSIR_BUCKETS, dtype=np.int64)
    tc = np.zeros(DSIR_BUCKETS, dtype=np.int64)
    for n in DSIR_ORDERS:
        starts = _ngram_starts(lens, n)
        # one hash per distinct n-gram: key the n-grams one word at a time,
        # renumbering the keys densely so that they never overflow
        key = np.zeros(len(starts), dtype=np.int64)
        for k in range(n):
            key *= len(words)
            key += ids[starts + k]
            distinct = np.unique(key)
            key = np.searchsorted(distinct, key)
        at = np.empty(len(distinct), dtype=np.int64)
        at[key] = starts  # where an occurrence of each distinct n-gram starts
        grams = zip(*(words[ids[at + k]].tolist() for k in range(n)))
        bucket = np.fromiter((hash_bucket("\x1f".join(g)) for g in grams),
                             dtype=np.int64, count=len(at))[key]
        n_cand = np.searchsorted(starts, len(cand_ids))
        cand_buckets.append(bucket[:n_cand])
        cc += np.bincount(bucket[:n_cand], minlength=DSIR_BUCKETS)
        tc += np.bincount(bucket[n_cand:], minlength=DSIR_BUCKETS)
    cc, tc = cc.astype(np.float64), tc.astype(np.float64)
    used = np.flatnonzero(cc)
    p = (tc[used] + 1.0) / (tc.sum() + DSIR_BUCKETS)
    q = cc[used] / cc.sum()
    log_ratio = np.zeros(DSIR_BUCKETS)
    for b, pb, qb in zip(used.tolist(), p.tolist(), q.tolist()):
        log_ratio[b] = math.log(pb) - math.log(qb)

    # Add each candidate's terms one feature position at a time, so each
    # sum runs in its candidate's feature order.
    out = np.zeros(len(cand_lens))
    longest_first = np.argsort(-cand_lens, kind="stable")
    neg_sorted = -cand_lens[longest_first]
    for n, bucket in zip(DSIR_ORDERS, cand_buckets):
        count = np.maximum(cand_lens - n + 1, 0)
        first = np.cumsum(count) - count  # each candidate's first n-gram in bucket
        for j in range(int(count.max())):
            docs = longest_first[: np.searchsorted(neg_sorted, -(j + n), side="right")]
            out[docs] += log_ratio[bucket[first[docs] + j]]
    return out


def dsir_select(ids: list[str], candidates: Iterable[list[str]],
                target: Iterable[list[str]], percent: float, seed: int) -> SelectionResult:
    """Importance resampling: Gumbel-top-k over the log-weights."""
    logw = dsir_log_weights(candidates, target)
    _check_one_score_per_id(ids, logw)
    rng = substream(seed, ROLE_GUMBEL)
    keys = logw + np.array([rng.gumbel() for _ in range(len(logw))])
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


def gradient_features(model: Model, seqs: list[TokenSequence]) -> np.ndarray:
    """Concatenated mean embedding-gradient (d) and mean logit-gradient (V) of
    each sequence's token_vectors, one row per sequence.

    The logit rows have the uniform loss weight divided out, so feature
    direction does not depend on response length.
    """
    rows = []

    def mean_token_vectors(chunk, batch, res, step) -> None:
        for b, seq in enumerate(chunk):
            emb_vecs, lm_vecs = token_vectors(seq, batch, res, b)
            rows.append(np.concatenate([emb_vecs.mean(axis=0), lm_vecs.mean(axis=0)]))

    frozen_gradients(model, seqs, mean_token_vectors)
    return _feature_matrix(seqs, rows)


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


def less_select(ids: list[str], cands: np.ndarray, queries: np.ndarray,
                percent: float) -> SelectionResult:
    """Max cosine of each candidate row to the query rows."""
    if not len(queries) or cands.shape != (len(ids), queries.shape[-1]):
        raise ValueError(f"feature width mismatch: {len(ids)} ids, candidates "
                         f"{cands.shape}, queries {queries.shape}")
    scores = np.empty(len(ids))
    for i in range(len(ids)):
        scores[i] = max(_cosine(cands[i], queries[j]) for j in range(queries.shape[0]))
    return selection_from_order("less", percent, ids, descending_order(scores), scores)


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
