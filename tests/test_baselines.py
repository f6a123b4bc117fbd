"""Baseline selector tests with hand-computed oracles."""

import math

import numpy as np
import pytest

from gradsel.baselines import (
    BM25_B,
    BM25_K1,
    bm25_scores,
    bm25_select,
    dsir_log_weights,
    dsir_select,
    gradient_features,
    hash_bucket,
    less_select,
    ngram_features,
    ppl_select,
    rds_select,
    representation_features,
    select_random,
    sign_projection,
)
from gradsel.corpus import TokenSequence
from gradsel.rng import ROLE_SELECT, substream
from gradsel.selector import subset_size
from gradsel.tinylm import ModelConfig, init_model


def _ids(n):
    return [f"c{i:03d}" for i in range(n)]


def test_random_full_and_deterministic():
    ids = _ids(10)
    assert set(select_random(ids, 100, seed=1).selected_ids) == set(ids)
    a = select_random(ids, 50, seed=42)
    b = select_random(ids, 50, seed=42)
    assert a.selected_ids == b.selected_ids
    assert len(a.selected_ids) == 5
    assert select_random(ids, 50, seed=43).selected_ids != a.selected_ids


def test_random_order_matches_sorted_reference():
    # reference: the sampled indices, then the rest in sorted(set(...)) order
    ids = _ids(37)
    for seed in range(5):
        size = subset_size(len(ids), 30)
        picked = substream(seed, ROLE_SELECT).sample_without_replacement(len(ids), size)
        order = (picked + sorted(set(range(len(ids))) - set(picked)))[:size]
        res = select_random(ids, 30, seed=seed)
        assert res.ordered_ids == tuple(ids[i] for i in order)
        assert res.selected_ids == tuple(ids[i] for i in sorted(order))
        assert [res.f_values[i] for i in ids] == [float(k in picked) for k in range(len(ids))]


def test_random_marginal_frequencies():
    ids = _ids(10)
    hits = {i: 0 for i in ids}
    trials = 10000
    for s in range(trials):
        for i in select_random(ids, 50, seed=s).selected_ids:
            hits[i] += 1
    for i in ids:
        assert abs(hits[i] / trials - 0.5) < 0.02


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
    res = bm25_select(_ids(2), docs, [["apple"]], 50)
    assert res.selected_ids == ("c001",)


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


def _bm25_reference(candidates, queries, aggregate):
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
        out[i] = max(per_query) if aggregate == "max" else sum(per_query) / len(per_query)
    return out


def test_bm25_matches_a_per_term_reference_bit_for_bit():
    rng = np.random.default_rng(21)
    words = [f"w{k}" for k in range(30)]  # the queries also use words no document has
    docs = [[words[k] for k in rng.integers(0, 25, rng.integers(0, 12))] for _ in range(60)]
    queries = [[words[k] for k in rng.integers(0, 30, rng.integers(1, 9))] for _ in range(7)]
    assert [] in docs
    for aggregate in ("mean", "max"):
        assert np.array_equal(bm25_scores(docs, queries, aggregate),
                              _bm25_reference(docs, queries, aggregate))


def test_dsir_exact_weight_no_hash_collision():
    # unigram model: target p=(0.8,0.2), candidates q=(0.5,0.5)
    assert hash_bucket("a", 4096) != hash_bucket("b", 4096)
    target = [["a"] * 4 + ["b"]]
    candidates = [["a", "a", "b"], ["b"]]
    logw = dsir_log_weights(candidates, target, n_buckets=4096,
                            orders=(1,), smooth_target=False)
    assert math.exp(logw[0]) == pytest.approx((0.8 / 0.5) ** 2 * (0.2 / 0.5), rel=1e-12)
    assert math.exp(logw[0]) == pytest.approx(1.024, rel=1e-12)


def test_dsir_equal_distributions_zero_weights():
    docs = [["a", "b"], ["b", "a"]]
    logw = dsir_log_weights(docs, docs, orders=(1, 2), smooth_target=False)
    np.testing.assert_allclose(logw, 0.0, atol=1e-12)


def _dsir_log_weights_per_occurrence(candidates, target, n_buckets, orders, smooth_target):
    # reference: one hash per n-gram occurrence, counted and summed in order
    def counts(docs):
        c = np.zeros(n_buckets)
        for doc in docs:
            for f in ngram_features(doc, orders):
                c[hash_bucket(f, n_buckets)] += 1
        return c

    tc, cc = counts(target), counts(candidates)
    p = (tc + 1.0) / (tc.sum() + n_buckets) if smooth_target else tc / tc.sum()
    q = cc / cc.sum()
    out = np.zeros(len(candidates))
    for i, doc in enumerate(candidates):
        s = 0.0
        for f in ngram_features(doc, orders):
            b = hash_bucket(f, n_buckets)
            s += math.log(p[b]) - math.log(q[b])
        out[i] = s
    return out


@pytest.mark.parametrize("n_buckets", [5, 4096])
def test_dsir_log_weights_match_per_occurrence_reference(n_buckets):
    # repeated words and n-grams, and (at 5 buckets) colliding features
    rng = substream(3, ROLE_SELECT)
    words = "the cat sat on a mat and then the dog sat too".split()
    candidates = [[words[rng.randint(len(words))] for _ in range(2 + rng.randint(9))]
                  for _ in range(40)]
    # unsmoothed p needs every candidate feature in the target
    for target, smooth in (([words[:6], ["the", "the", "cat"]], True), (candidates, False)):
        got = dsir_log_weights(candidates, target, n_buckets=n_buckets, smooth_target=smooth)
        want = _dsir_log_weights_per_occurrence(candidates, target, n_buckets, (1, 2), smooth)
        assert np.array_equal(got, want)


def test_dsir_deterministic_and_sized():
    cands = [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"]]
    target = [["a", "b"]]
    a = dsir_select(_ids(4), cands, target, 50, seed=7)
    b = dsir_select(_ids(4), cands, target, 50, seed=7)
    assert a.selected_ids == b.selected_ids
    assert len(a.selected_ids) == 2


def test_ngram_features_orders():
    assert ngram_features(["a", "b", "c"], (1,)) == ["a", "b", "c"]
    assert ngram_features(["a", "b", "c"], (2,)) == ["a\x1fb", "b\x1fc"]
    assert len(ngram_features(["a", "b", "c"], (1, 2))) == 5


def _rows(*rows):
    return np.array(rows, dtype=float)


def test_rds_self_similarity_ranks_first():
    q = _rows([1.0, 2.0, 3.0])
    cands = _rows([3.0, -1.0, 0.5], [1.0, 2.0, 3.0], [-1.0, -2.0, -3.0])
    res = rds_select(_ids(3), cands, q, 34)
    assert res.selected_ids == ("c001",)
    assert res.f_values["c001"] == pytest.approx(1.0)
    assert res.f_values["c002"] == pytest.approx(-1.0)


def test_rds_orthogonal_and_scale_invariance():
    q = _rows([1.0, 0.0])
    cands = _rows([0.0, 2.0], [5.0, 0.0])
    res = rds_select(_ids(2), cands, q, 100)
    assert res.f_values["c000"] == pytest.approx(0.0)
    assert res.f_values["c001"] == pytest.approx(1.0)
    scaled = rds_select(_ids(2), _rows([0.0, 10.0], [0.2, 0.0]), q, 50)
    assert scaled.selected_ids == res.selected_ids[:1] or scaled.selected_ids == ("c001",)


def test_rds_zero_norm_candidate_scores_minus_one():
    q = _rows([1.0, 1.0])
    cands = _rows([0.0, 0.0], [1.0, 1.0])
    res = rds_select(_ids(2), cands, q, 50)
    assert res.f_values["c000"] == -1.0
    assert res.selected_ids == ("c001",)


def test_rds_length_mismatch_rejected():
    with pytest.raises(ValueError, match="width mismatch"):
        rds_select(_ids(1), _rows([1.0, 2.0]), _rows([1.0, 2.0, 3.0]), 100)
    with pytest.raises(ValueError, match="width mismatch"):  # one row per id
        rds_select(_ids(2), _rows([1.0, 2.0]), _rows([1.0, 2.0]), 100)


def test_less_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="width mismatch"):
        less_select(_ids(1), _rows([1.0, 2.0]), _rows([1.0, 2.0, 3.0]), 100, None, 0)
    with pytest.raises(ValueError, match="width mismatch"):  # no query rows
        less_select(_ids(1), _rows([1.0, 2.0]), np.empty((0, 2)), 100, None, 0)


def test_ppl_outlier_rejected():
    rng = np.random.default_rng(0)
    ppls = list(rng.normal(10.0, 0.1, 99)) + [1000.0]
    res = ppl_select(_ids(100), ppls, 50)
    assert "c099" not in res.selected_ids
    assert len(res.selected_ids) == 50


def test_ppl_full_and_scale_invariant():
    rng = np.random.default_rng(1)
    ppls = list(rng.uniform(5, 15, 20))
    assert len(ppl_select(_ids(20), ppls, 100).selected_ids) == 20
    a = ppl_select(_ids(20), ppls, 40).selected_ids
    b = ppl_select(_ids(20), [2 * p for p in ppls], 40).selected_ids
    assert a == b
    with pytest.raises(ValueError, match="positive"):
        ppl_select(_ids(2), [1.0, -2.0], 50)


def test_less_identical_vector_scores_one():
    rng = np.random.default_rng(2)
    dim = 300
    q = rng.normal(size=dim)
    cands = _rows(rng.normal(size=dim), q)
    res = less_select(_ids(2), cands, _rows(q), 50, projection_dim=256, seed=3)
    assert res.f_values["c001"] == pytest.approx(1.0, abs=1e-12)
    assert res.selected_ids == ("c001",)


def test_less_projection_preserves_cosine_roughly():
    rng = np.random.default_rng(3)
    dim = 300
    worst = 0.0
    for trial in range(100):
        u = rng.normal(size=dim)
        v = rng.normal(size=dim)
        exact = float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
        res = less_select(_ids(1), _rows(u), _rows(v), 100, projection_dim=256, seed=trial)
        worst = max(worst, abs(res.f_values["c000"] - exact))
    assert worst < 0.15


def test_less_no_projection_is_exact_cosine():
    u = np.array([1.0, 2.0, 2.0])
    v = np.array([2.0, 4.0, 4.0])
    res = less_select(_ids(1), _rows(u), _rows(v), 100, projection_dim=None, seed=0)
    assert res.f_values["c000"] == pytest.approx(1.0, rel=1e-12)
    res3 = less_select(_ids(1), _rows(u), _rows(v), 100, projection_dim=3, seed=0)
    assert res3.f_values["c000"] == pytest.approx(1.0, rel=1e-12)


def test_less_deterministic_per_seed():
    rng = np.random.default_rng(4)
    cands = rng.normal(size=(10, 40))
    qs = rng.normal(size=(1, 40))
    a = less_select(_ids(10), cands, qs, 30, projection_dim=16, seed=5)
    b = less_select(_ids(10), cands, qs, 30, projection_dim=16, seed=5)
    assert a.selected_ids == b.selected_ids


def test_sign_projection_entries():
    proj = sign_projection(6, 4, seed=0)
    assert proj.shape == (6, 4)
    np.testing.assert_allclose(np.abs(proj), 1.0 / math.sqrt(4))


_SEQS = [
    TokenSequence("a", (1, 5, 3, 6, 2),
                  ("special", "prompt", "special", "response", "special")),
    TokenSequence("b", (1, 7, 3, 8, 9, 2),
                  ("special", "prompt", "special", "response", "response", "special")),
]


def test_feature_extraction_shapes_and_kinds():
    m = init_model(ModelConfig(8, 1, 2, 16, 30, 12, 0))
    reps = representation_features(m, _SEQS)
    assert reps.shape == (2, 8)
    assert np.array_equal(reps[1], representation_features(m, _SEQS[1:])[0])
    grads = gradient_features(m, _SEQS)
    assert grads.shape == (2, 8 + 30)
    assert np.array_equal(grads[1], gradient_features(m, _SEQS[1:])[0])


def test_non_finite_features_are_refused_by_instance():
    m = init_model(ModelConfig(8, 1, 2, 16, 30, 12, 0))
    m.params["emb"][8] = np.nan  # token 8 occurs in b only
    with pytest.raises(ValueError, match="^non-finite features for b$"):
        representation_features(m, _SEQS)
    assert np.isfinite(representation_features(m, _SEQS[:1])).all()
    with pytest.raises(RuntimeError, match="instance b has loss nan"):
        gradient_features(m, _SEQS)


def test_less_refuses_a_projection_outside_one_to_the_feature_width():
    cands, queries = _rows([1.0, 2.0, 3.0]), _rows([1.0, 0.0, 0.0])
    for bad in (0, -3, 4):
        with pytest.raises(ValueError, match=r"projection_dim must lie in \[1, 3\]"):
            less_select(_ids(1), cands, queries, 100, bad, 0)


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
    for res in (
        select_random(ids, 50, 0),
        bm25_select(ids, docs, qs, 50),
        dsir_select(ids, docs, qs, 50, 0),
        rds_select(ids, feats, qf, 50),
        less_select(ids, gfeats, gq, 50, None, 0),
        ppl_select(ids, ppls, 50),
    ):
        assert len(res.selected_ids) == 4  # 3.5 rounds half-up
