"""Baseline selector tests with hand-computed oracles."""

import itertools
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from gradsel import baselines
from gradsel.baselines import (
    BM25_B,
    BM25_K1,
    DSIR_BUCKETS,
    DSIR_ORDERS,
    bm25_scores,
    dsir_log_weights,
    dsir_order,
    gradient_features,
    hash_bucket,
    less_scores,
    rds_scores,
    representation_features,
    select_random,
)
from gradsel.corpus import TokenSequence
from gradsel.rng import ROLE_SELECT, substream
from gradsel.selector import density_order, descending_order, selection_from_order, subset_size
from gradsel.tinylm import ModelConfig, init_model, training


def _ids(n):
    return [f"c{i:03d}" for i in range(n)]


def test_random_full_and_deterministic():
    assert sorted(select_random(10, seed=1)) == list(range(10))
    a = select_random(10, seed=42)
    assert a == select_random(10, seed=42)
    assert sorted(a[:5]) != sorted(select_random(10, seed=43)[:5])
    with pytest.raises(ValueError, match="^no candidates$"):
        select_random(0, seed=1)


def test_random_order_matches_sorted_reference():
    # reference: the k-sample of the same stream, for the kept prefix
    for seed in range(5):
        size = subset_size(37, 30)
        picked = substream(seed, ROLE_SELECT).sample_without_replacement(37, size)
        order = select_random(37, seed=seed)
        assert order[:size] == picked
        assert sorted(order) == list(range(37))


def test_random_marginal_frequencies():
    hits = [0] * 10
    trials = 10000
    for s in range(trials):
        for i in select_random(10, seed=s)[:5]:
            hits[i] += 1
    for h in hits:
        assert abs(h / trials - 0.5) < 0.02


def test_bm25_single_doc_idf():
    # M=1, df=1 -> idf = ln(1 + 0.5/1.5) = ln(4/3)
    docs = [["apple", "pie"]]
    scores = bm25_scores(docs, [["apple"]])
    idf = math.log(4.0 / 3.0)
    # dl = avgdl -> norm = k1, tf=1 -> idf * (k1+1)/(1+k1)
    expected = idf * (1.2 + 1.0) / (1.0 + 1.2)
    assert scores[0] == pytest.approx(expected, rel=1e-12)
    assert idf == pytest.approx(0.28768, abs=5e-6)


def test_bm25_no_overlap_scores_zero():
    docs = [["x", "y"], ["apple", "pie"]]
    scores = bm25_scores(docs, [["apple", "tart"]])
    assert scores[0] == 0.0
    assert scores[1] > 0.0
    assert descending_order(bm25_scores(docs, [["apple"]]))[:1] == [1]


def test_bm25_duplicate_docs_share_score():
    docs = [["a", "b"], ["a", "b"], ["c", "c"]]
    scores = bm25_scores(docs, [["a"]])
    assert scores[0] == scores[1]


def test_bm25_term_frequency_saturates():
    docs = [["a"], ["a", "a", "a", "a"]]
    scores = bm25_scores(docs, [["a"]])
    assert scores[1] > 0
    # tf growth is sublinear under k1 saturation
    assert scores[1] < 4 * scores[0]


def test_bm25_rejects_empty_query():
    with pytest.raises(ValueError, match="empty query"):
        bm25_scores([["a"]], [[]])


def test_bm25_query_multiplicity_counts():
    docs = [["a", "b"], ["b", "c"]]
    single = bm25_scores(docs, [["a"]])
    double = bm25_scores(docs, [["a", "a"]])
    np.testing.assert_allclose(double, 2 * single)


def _bm25_reference(candidates, queries):
    """The BM25 formula with idf computed afresh for every matching term."""
    M = len(candidates)
    avgdl = sum(len(d) for d in candidates) / M
    out = np.zeros(M)
    for i, doc in enumerate(candidates):
        if not doc:
            continue
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * len(doc) / avgdl)
        per_query = []
        for q in queries:
            s = 0.0
            for term in q:
                tf = doc.count(term)
                if tf:
                    d = sum(term in c for c in candidates)
                    idf = math.log(1.0 + (M - d + 0.5) / (d + 0.5))
                    s += idf * tf * (BM25_K1 + 1.0) / (tf + norm)
            per_query.append(s)
        out[i] = sum(per_query) / len(per_query)
    return out


def test_bm25_matches_a_per_term_reference_bit_for_bit():
    rng = np.random.default_rng(21)
    words = [f"w{k}" for k in range(30)]  # the queries also use words no document has
    docs = [[words[k] for k in rng.integers(0, 25, rng.integers(0, 12))] for _ in range(60)]
    queries = [[words[k] for k in rng.integers(0, 30, rng.integers(1, 9))] for _ in range(7)]
    assert [] in docs
    assert np.array_equal(bm25_scores(docs, queries), _bm25_reference(docs, queries))


def _smoothed_ratio(t, t_total, c, c_total):
    """A feature's p/q: add-one smoothed target share over candidate share."""
    return Fraction(t + 1, t_total + DSIR_BUCKETS) / Fraction(c, c_total)


def test_dsir_exact_weight_no_hash_collision():
    # four features, each in its own bucket
    assert len({hash_bucket(f) for f in ("a", "b", "a\x1fa", "a\x1fb")}) == 4
    # target counts a 4, b 1, a|a 3, a|b 1; candidate counts a 2, b 2, a|a 1, a|b 1
    target = [["a"] * 4 + ["b"]]
    candidates = [["a", "a", "b"], ["b"]]
    r = {f: _smoothed_ratio(t, 9, c, 6)
         for f, t, c in (("a", 4, 2), ("b", 1, 2), ("aa", 3, 1), ("ab", 1, 1))}
    logw = dsir_log_weights(candidates, target)
    assert math.exp(logw[0]) == pytest.approx(
        float(r["a"] ** 2 * r["b"] * r["aa"] * r["ab"]), rel=1e-12)
    assert math.exp(logw[1]) == pytest.approx(float(r["b"]), rel=1e-12)
    # the target as its own candidates: a 2, b 2, a|b 1, b|a 1 on both sides,
    # so smoothing alone moves each weight, and both documents weigh the same
    assert hash_bucket("b\x1fa") not in {hash_bucket(f) for f in ("a", "b", "a\x1fb")}
    docs = [["a", "b"], ["b", "a"]]
    logw = dsir_log_weights(docs, docs)
    want = float(_smoothed_ratio(2, 6, 2, 6) ** 2 * _smoothed_ratio(1, 6, 1, 6))
    assert [math.exp(x) for x in logw] == pytest.approx([want, want], rel=1e-12)


def test_dsir_equal_distributions_zero_weights():
    # one-word documents whose words fill every bucket once: the candidate
    # distribution is uniform, and so is the add-one smoothed target when the
    # target repeats the candidates, so every p/q is exactly 1
    first = {}
    for k in itertools.count():
        first.setdefault(hash_bucket(f"w{k}"), f"w{k}")
        if len(first) == DSIR_BUCKETS:
            break
    docs = [[first[b]] for b in range(DSIR_BUCKETS)]
    for target in (docs, docs + docs[::-1]):
        assert np.array_equal(dsir_log_weights(docs, target), np.zeros(DSIR_BUCKETS))


def ngram_features(tokens, orders=DSIR_ORDERS):
    """Every n-gram of tokens for each n in orders, words joined by U+001F."""
    feats = []
    for n in orders:
        for i in range(len(tokens) - n + 1):
            feats.append("\x1f".join(tokens[i : i + n]))
    return feats


def _dsir_log_weights_per_occurrence(candidates, target, n_buckets=DSIR_BUCKETS):
    # reference: one hash per n-gram occurrence, counted and summed in order
    def counts(docs):
        c = np.zeros(n_buckets)
        for doc in docs:
            for f in ngram_features(doc):
                c[hash_bucket(f)] += 1
        return c

    tc, cc = counts(target), counts(candidates)
    p = (tc + 1.0) / (tc.sum() + n_buckets)
    q = cc / cc.sum()
    out = np.zeros(len(candidates))
    for i, doc in enumerate(candidates):
        s = 0.0
        for f in ngram_features(doc):
            b = hash_bucket(f)
            s += math.log(p[b]) - math.log(q[b])
        out[i] = s
    return out


def _colliding_words():
    """The first two words w<k> whose features share a bucket."""
    seen = {}
    for k in itertools.count():
        b = hash_bucket(f"w{k}")
        if b in seen:
            return [seen[b], f"w{k}"]
        seen[b] = f"w{k}"


@pytest.mark.parametrize("n_buckets", [5, DSIR_BUCKETS])
def test_dsir_log_weights_match_per_occurrence_reference(n_buckets, monkeypatch):
    # repeated words and n-grams, and two words that collide at DSIR_BUCKETS;
    # at 5 buckets nearly every feature shares its bucket with another
    monkeypatch.setattr(baselines, "DSIR_BUCKETS", n_buckets)
    rng = substream(3, ROLE_SELECT)
    words = "the cat sat on a mat and then the dog sat too".split() + _colliding_words()
    candidates = [[words[rng.randint(len(words))] for _ in range(2 + rng.randint(9))]
                  for _ in range(40)]
    for target in ([words[:6], ["the", "the", "cat"], words[-1:]], candidates):
        got = dsir_log_weights(candidates, target)
        want = _dsir_log_weights_per_occurrence(candidates, target, n_buckets)
        assert np.array_equal(got, want)


def test_dsir_deterministic_and_sized():
    cands = [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"]]
    target = [["a", "b"]]
    logw = dsir_log_weights(cands, target)
    a = dsir_order(logw, seed=7)
    assert a == dsir_order(logw, seed=7)
    assert sorted(a) == [0, 1, 2, 3]


# Empty and one-word documents, a word no other document has, and repeats.
_EDGE_POOLS = {
    "empty docs": [[], ["a", "b", "a"], [], ["b", "c"]],
    "one-word docs": [["a"], ["b"], ["a"], ["c"]],
    "mixed": [["a", "b", "a", "c"], [], ["c"], ["b", "c", "b", "c", "d"], ["e"]],
}
# "zz" is in no candidate; "a" and "c" repeat within a query.
_EDGE_QUERIES = [["a", "a", "zz"], ["zz"], ["c", "b", "c"]]


@pytest.mark.parametrize("pool", sorted(_EDGE_POOLS))
def test_bm25_edge_cases_match_the_reference_bit_for_bit(pool):
    docs = _EDGE_POOLS[pool]
    want = _bm25_reference(docs, _EDGE_QUERIES)
    assert np.array_equal(bm25_scores(docs, _EDGE_QUERIES), want)
    assert np.array_equal(bm25_scores(iter(docs), iter(_EDGE_QUERIES)), want)


@pytest.mark.parametrize("pool", sorted(_EDGE_POOLS))
def test_dsir_edge_cases_match_the_reference_bit_for_bit(pool):
    docs = _EDGE_POOLS[pool]
    for target in (_EDGE_QUERIES, docs + _EDGE_QUERIES):
        want = _dsir_log_weights_per_occurrence(docs, target)
        assert np.array_equal(dsir_log_weights(docs, target), want)
        assert np.array_equal(dsir_log_weights(iter(docs), iter(target)), want)


def test_an_all_empty_pool_scores_zero_without_a_warning():
    docs = [[], [], []]
    assert np.array_equal(bm25_scores(docs, _EDGE_QUERIES), np.zeros(3))
    assert np.array_equal(_bm25_reference(docs, _EDGE_QUERIES), np.zeros(3))
    assert np.array_equal(dsir_log_weights(iter(docs), _EDGE_QUERIES), np.zeros(3))


def test_a_score_count_other_than_the_id_count_is_refused():
    # the cut zips ids with scores, so a short or long score array is refused
    # there rather than truncated
    scores = bm25_scores([["x", "y"], ["y"]], [["y"]])
    with pytest.raises(ValueError, match="^3 ids for 2 scores$"):
        selection_from_order("bm25", 50, _ids(3), descending_order(scores), scores)
    logw = dsir_log_weights([["x", "y"], ["y"], ["x"]], [["y"]])
    with pytest.raises(ValueError, match="^1 ids for 3 scores$"):
        selection_from_order("dsir", 50, _ids(1), dsir_order(logw, 0), logw, seed=0)
    scores = bm25_scores(iter([["x"], ["y"], ["x"]]), [["y"]])
    with pytest.raises(ValueError, match="^2 ids for 3 scores$"):
        selection_from_order("bm25", 50, _ids(2), descending_order(scores), scores)
    ones = np.ones(4)
    with pytest.raises(ValueError, match="^5 ids for 4 scores$"):
        selection_from_order("random", 100, _ids(5), select_random(5, 0), ones, seed=0)


def _word_docs(n_docs, seed, shortest=0):
    """A maker of generators over n_docs documents of shortest to 15 words
    from a 500-word vocabulary, each word a fresh string made as its
    document is consumed."""
    rng = np.random.default_rng(seed)
    ends = np.cumsum(rng.integers(shortest, 16, n_docs)).tolist()
    picks = rng.integers(0, 500, ends[-1])
    return lambda: ([f"w{k}" for k in picks[a:b].tolist()] for a, b in zip([0, *ends], ends))


def test_bm25_and_dsir_memory_stays_bounded():
    cands, queries = _word_docs(4096, 0), _word_docs(16, 1, shortest=1)

    def peak(score):
        score(cands(), queries())  # first-call allocations are not the scorer's
        tracemalloc.start()
        try:
            score(cands(), queries())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # Holding the pool's word lists and one Counter or bucket list per
    # document peaked at 3.4 MB (bm25) and 7.0 MB (dsir); the flat id
    # arrays peak near 0.7 MB and 2.6 MB.
    assert peak(bm25_scores) < 2 * 2**20
    assert peak(dsir_log_weights) < 4 * 2**20


def test_ngram_features_orders():
    assert ngram_features(["a", "b", "c"], (1,)) == ["a", "b", "c"]
    assert ngram_features(["a", "b", "c"], (2,)) == ["a\x1fb", "b\x1fc"]
    assert len(ngram_features(["a", "b", "c"], (1, 2))) == 5


def _rows(*rows):
    return np.array(rows, dtype=float)


def test_rds_self_similarity_ranks_first():
    q = _rows([1.0, 2.0, 3.0])
    cands = _rows([3.0, -1.0, 0.5], [1.0, 2.0, 3.0], [-1.0, -2.0, -3.0])
    scores = rds_scores(cands, q)
    assert descending_order(scores)[: subset_size(3, 34)] == [1]
    assert scores[1] == pytest.approx(1.0)
    assert scores[2] == pytest.approx(-1.0)


def test_rds_orthogonal_and_scale_invariance():
    q = _rows([1.0, 0.0])
    cands = _rows([0.0, 2.0], [5.0, 0.0])
    scores = rds_scores(cands, q)
    assert scores[0] == pytest.approx(0.0)
    assert scores[1] == pytest.approx(1.0)
    scaled = rds_scores(_rows([0.0, 10.0], [0.2, 0.0]), q)
    assert descending_order(scaled)[:1] == [1]


def test_rds_zero_norm_candidate_scores_minus_one():
    q = _rows([1.0, 1.0])
    cands = _rows([0.0, 0.0], [1.0, 1.0])
    scores = rds_scores(cands, q)
    assert scores[0] == -1.0
    assert descending_order(scores)[:1] == [1]


def test_rds_length_mismatch_rejected():
    with pytest.raises(ValueError, match="width mismatch"):
        rds_scores(_rows([1.0, 2.0]), _rows([1.0, 2.0, 3.0]))
    scores = rds_scores(_rows([1.0, 2.0]), _rows([1.0, 2.0]))
    with pytest.raises(ValueError, match="^2 ids for 1 scores$"):  # one row per id
        selection_from_order("rds", 100, _ids(2), descending_order(scores), scores)


def test_less_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="width mismatch"):
        less_scores(_rows([1.0, 2.0]), _rows([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("scores", [rds_scores, less_scores])
def test_empty_query_set_rejected(scores):
    with pytest.raises(ValueError, match="^empty query set"):
        scores(_rows([1.0, 2.0]), np.empty((0, 2)))
    with pytest.raises(ValueError, match="^all query features have zero norm$"):
        scores(_rows([1.0, 2.0]), np.zeros((2, 2)))


def test_rds_and_less_score_each_row_as_its_per_pair_cosines():
    """Every score is within 1e-12 of the per-pair cosine formula and keeps
    its bits whether its row is scored alone or inside the full matrix; a
    zero-norm query is dropped, a zero-norm candidate scores -1, and no
    candidates give no scores."""
    rng = np.random.default_rng(3)
    cands, queries = rng.normal(size=(40, 9)), rng.normal(size=(5, 9))
    cands[7] = queries[3] = 0.0
    usable = [q for q in queries if np.linalg.norm(q) > 0]

    def cos(u, v):
        return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

    for scores, reduce in ((rds_scores, np.mean), (less_scores, max)):
        got = scores(cands, queries)
        want = [reduce([cos(c, q) for q in usable]) if c.any() else -1.0 for c in cands]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert got[7] == -1.0
        assert [scores(c[None], queries)[0] for c in cands] == got.tolist()
        assert scores(cands, np.array(usable)).tolist() == got.tolist()
        assert scores(cands[:0], queries).shape == (0,)


@pytest.mark.parametrize("scores", [rds_scores, less_scores])
def test_zero_norm_rows_follow_one_rule(scores):
    """A zero-norm query is dropped, not counted as cosine 0.0, which would
    lift every max cosine to at least 0; a zero-norm candidate scores -1."""
    cands = _rows([-1.0, 0.1], [-1.0, 1.0], [0.0, 0.0])
    got = scores(cands, _rows([0.0, 0.0], [1.0, 0.0]))
    assert got.tolist() == scores(cands, _rows([1.0, 0.0])).tolist()
    assert got.tolist() == pytest.approx([-0.995037, -0.707107, -1.0], abs=1e-6)
    assert descending_order(got) == [1, 0, 2]


def _ppl_selection(ids, ppls, percent):
    """The pipeline's ppl branch on measured perplexities: their density
    order, cut to the budget."""
    order, f, h = density_order(np.array(ppls))
    return selection_from_order("ppl", percent, ids, order, f, bandwidth=h)


def test_ppl_outlier_rejected():
    rng = np.random.default_rng(0)
    ppls = list(rng.normal(10.0, 0.1, 99)) + [1000.0]
    res = _ppl_selection(_ids(100), ppls, 50)
    assert "c099" not in res.selected_ids
    assert len(res.selected_ids) == 50


def test_ppl_full_and_scale_invariant():
    rng = np.random.default_rng(1)
    ppls = list(rng.uniform(5, 15, 20))
    assert len(_ppl_selection(_ids(20), ppls, 100).selected_ids) == 20
    a = _ppl_selection(_ids(20), ppls, 40).selected_ids
    b = _ppl_selection(_ids(20), [2 * p for p in ppls], 40).selected_ids
    assert a == b


def test_less_identical_vector_scores_one():
    rng = np.random.default_rng(2)
    dim = 300
    q = rng.normal(size=dim)
    cands = _rows(rng.normal(size=dim), q)
    scores = less_scores(cands, _rows(q))
    assert scores[1] == pytest.approx(1.0, abs=1e-12)
    assert descending_order(scores)[:1] == [1]


def test_less_no_projection_is_exact_cosine():
    u = np.array([1.0, 2.0, 2.0])
    v = np.array([2.0, 4.0, 4.0])
    assert less_scores(_rows(u), _rows(v))[0] == pytest.approx(1.0, rel=1e-12)


_SEQS = [
    TokenSequence("a", (1, 5, 3, 6, 2), 2),
    TokenSequence("b", (1, 7, 3, 8, 9, 2), 2),
]


def test_feature_extraction_shapes_and_kinds():
    m = init_model(ModelConfig(8, 1, 2, 16, 30, 12, 0))
    reps, at = representation_features(m, _SEQS)
    assert reps.shape == (2, 8) and at == [0, 1]
    assert np.array_equal(reps[1], representation_features(m, _SEQS[1:])[0][0])
    grads, at = gradient_features(m, _SEQS)
    assert grads.shape == (2, 8 + 30) and at == [0, 1]
    assert np.array_equal(grads[1], gradient_features(m, _SEQS[1:])[0][0])


def test_gradient_features_measure_each_distinct_sequence_once(monkeypatch):
    measured = []
    real = training.loss_and_grads

    def counted(model, batch, *args, **kwargs):
        measured.extend(batch.ids)
        return real(model, batch, *args, **kwargs)

    monkeypatch.setattr(training, "loss_and_grads", counted)
    a, b = _SEQS
    seqs = [a, b, replace(a, instance_id="a2"), replace(b, instance_id="b2"),
            replace(a, instance_id="a3")]
    grads, at = gradient_features(init_model(ModelConfig(8, 1, 2, 16, 30, 12, 0)), seqs)
    assert measured == ["a", "b"]
    assert grads.shape == (2, 8 + 30)
    assert at == [0, 1, 0, 1, 0]


@pytest.mark.parametrize("measure", [representation_features, baselines.sequence_perplexities],
                         ids=["rds", "ppl"])
def test_forward_passes_run_each_distinct_sequence_once(monkeypatch, measure):
    """a2, a3 and b2 repeat a and b under other ids; c has a's tokens under
    another sep_pos, so it is a sequence of its own. The distinct sequences
    run shortest first, in the order given within a length: a, c, then b."""
    forwarded = []
    real = baselines.forward

    def spy(model, batch, *args, **kwargs):
        forwarded.extend(batch.ids)
        return real(model, batch, *args, **kwargs)

    monkeypatch.setattr(baselines, "forward", spy)
    a, b = _SEQS
    seqs = [a, b, replace(a, instance_id="a2"), replace(a, instance_id="c", sep_pos=1),
            replace(b, instance_id="b2"), replace(a, instance_id="a3")]
    out = measure(init_model(ModelConfig(8, 1, 2, 16, 30, 12, 0)), seqs)
    if measure is representation_features:  # the distinct rows, and each sequence's row
        rows, at = out
        assert len(rows) == 3 and at == [0, 2, 0, 1, 2, 0]
        out = rows[at]
    assert forwarded == ["a", "c", "b"]
    assert len(out) == 6
    for i, first in enumerate([0, 1, 0, 3, 1, 0]):
        assert np.array_equal(out[i], out[first])


def test_non_finite_features_are_refused_by_instance():
    m = init_model(ModelConfig(8, 1, 2, 16, 30, 12, 0))
    m.params["emb"][8] = np.nan  # token 8 occurs in b only
    with pytest.raises(ValueError, match="^non-finite features for b$"):
        representation_features(m, _SEQS)
    assert np.isfinite(representation_features(m, _SEQS[:1])[0]).all()
    with pytest.raises(RuntimeError, match="instance b has loss nan"):
        gradient_features(m, _SEQS)


def test_all_baselines_subset_size_matches_rule():
    ids = _ids(7)
    docs = [[f"w{i}", "x"] for i in range(7)]
    qs = [["x", "w0"]]
    rng = np.random.default_rng(6)
    feats = rng.normal(size=(7, 5))
    qf = rng.normal(size=(1, 5))
    gfeats = rng.normal(size=(7, 5))
    gq = rng.normal(size=(1, 5))
    ppls = list(rng.uniform(5, 9, 7))
    bm25, logw = bm25_scores(docs, qs), dsir_log_weights(docs, qs)
    rds, less = rds_scores(feats, qf), less_scores(gfeats, gq)
    for order, scores, bandwidth in (
        (select_random(7, 0), np.ones(7), None),
        (descending_order(bm25), bm25, None),
        (dsir_order(logw, 0), logw, None),
        (descending_order(rds), rds, None),
        (descending_order(less), less, None),
        density_order(np.array(ppls)),
    ):
        assert sorted(order) == list(range(7))
        res = selection_from_order("any", 50, ids, order, scores, bandwidth=bandwidth)
        assert len(res.selected_ids) == 4  # 3.5 rounds half-up
