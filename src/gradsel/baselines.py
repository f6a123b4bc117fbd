"""Comparison rankers: random, BM25, DSIR, RDS, PPL, and LESS-style.

Each baseline only ranks: it returns one score per candidate or an order
over the candidates, and pipeline.run_selection_by_name cuts every ranking
to the budget the same way. The similarity baselines (BM25, DSIR, RDS, LESS)
score candidates against a small held-out query set; PPL ranks perplexities
by selector.density_order, the density criterion of the gradient strategies.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from .corpus import TokenSequence
from .gradstats import token_vectors
from .rng import ROLE_GUMBEL, ROLE_SELECT, substream
from .selector import descending_order
from .tinylm.model import Model, _times_wt, batches, distinct, forward
from .tinylm.training import frozen_gradients

BM25_K1 = 1.2
BM25_B = 0.75
DSIR_BUCKETS = 4096
DSIR_ORDERS = (1, 2)


def select_random(n: int, seed: int) -> list[int]:
    """A uniform permutation of range(n), deterministic per seed. It is the
    whole partial Fisher-Yates pass, so its first k entries are the k-sample
    sample_without_replacement(n, k) draws from the same stream."""
    if n < 1:
        raise ValueError("no candidates")
    return substream(seed, ROLE_SELECT).sample_without_replacement(n, n)


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


def dsir_order(logw: np.ndarray, seed: int) -> list[int]:
    """Importance resampling: the candidates by log-weight plus Gumbel noise,
    largest first, so any prefix is a Gumbel-top-k sample."""
    rng = substream(seed, ROLE_GUMBEL)
    return descending_order(logw + np.array([rng.gumbel() for _ in range(len(logw))]))


def _feature_matrix(seqs: list[TokenSequence], rows) -> np.ndarray:
    """The rows, one per sequence of seqs, stacked into one (len(seqs), dim)
    array; a non-finite row is refused, naming its instance."""
    if not seqs:
        raise ValueError("no sequences to take features of")
    feats = np.vstack(rows)
    bad = np.flatnonzero(~np.isfinite(feats).all(axis=1))
    if bad.size:
        raise ValueError(f"non-finite features for {seqs[bad[0]].instance_id}")
    return feats


def representation_features(model: Model, seqs: list[TokenSequence]
                            ) -> tuple[np.ndarray, list[int]]:
    """Final-layer hidden state at the last position of each distinct
    sequence of seqs (tinylm.model.distinct), one row each, and for each of
    seqs the index of its first copy's row: a repeat is run and scored once."""
    uniq, at = distinct(seqs)
    rows = []
    for _, batch in batches(uniq):
        trace = forward(model, batch, last_only=True)
        rows += list(trace.hf[trace.rows])
    return _feature_matrix(uniq, rows), at


def gradient_features(model: Model, seqs: list[TokenSequence]) -> tuple[np.ndarray, list[int]]:
    """Concatenated mean embedding-gradient (d) and mean logit-gradient (V) of
    the token_vectors of each sequence frozen_gradients measures, one row
    each, and for each of seqs the index of its first copy's row.

    The logit rows have the uniform loss weight divided out, so feature
    direction does not depend on response length.
    """
    measured, rows = [], []

    def mean_token_vectors(chunk, batch, res, step) -> None:
        for b, seq in enumerate(chunk):
            emb_vecs, lm_vecs = token_vectors(seq, batch, res, b)
            rows.append(np.concatenate([emb_vecs.mean(axis=0), lm_vecs.mean(axis=0)]))
        measured.extend(chunk)

    at = frozen_gradients(model, seqs, mean_token_vectors)
    return _feature_matrix(measured, rows), at


def _cosines(cands: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """The (len(cands), q) cosines of each candidate row to each of the q
    query rows of nonzero norm; a zero-norm candidate's row is all -1, below
    any cosine. The products run in _times_wt's fixed row blocks, so a row's
    cosines do not depend on the rows around it."""
    if not len(queries):
        raise ValueError("empty query set: no query features to score against")
    if cands.shape[1:] != queries.shape[1:]:
        raise ValueError(f"feature width mismatch: candidates {cands.shape}, "
                         f"queries {queries.shape}")
    nq = np.linalg.norm(queries, axis=1)
    if not nq.any():
        raise ValueError("all query features have zero norm")
    keep = nq > 0
    nc = np.linalg.norm(cands, axis=1)
    cos = _times_wt(cands, queries[keep]) / (np.where(nc > 0, nc, 1.0)[:, None] * nq[keep])
    cos[nc == 0] = -1.0
    return cos


def rds_scores(cands: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Mean cosine of each candidate row to the nonzero query rows; a
    zero-norm candidate scores -1."""
    return _cosines(cands, queries).mean(axis=1)


def less_scores(cands: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Max cosine of each candidate row to the nonzero query rows; a
    zero-norm candidate scores -1."""
    return _cosines(cands, queries).max(axis=1)


def sequence_perplexities(model: Model, seqs: list[TokenSequence]) -> list[float]:
    """exp(mean response-token cross-entropy) of each sequence; each distinct
    sequence is run once (tinylm.model.distinct). A loss whose exp overflows
    a float is refused, naming its instance."""
    uniq, at = distinct(seqs)
    out: list[float] = []
    for chunk, batch in batches(uniq):
        for seq, loss in zip(chunk, forward(model, batch).losses.tolist()):
            try:
                out.append(math.exp(loss))
            except OverflowError:
                raise RuntimeError(f"instance {seq.instance_id}: loss {loss} "
                                   "overflows its perplexity") from None
    return [out[i] for i in at]
