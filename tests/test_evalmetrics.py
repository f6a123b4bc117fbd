"""Metric tests against brute-force oracles and hand-computed values."""

import itertools
import math
import tracemalloc
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

from gradsel import evalmetrics
from gradsel.corpus import SynthSpec, build_vocab, encode_instance, synth_corpus
from gradsel.evalmetrics import (
    _min_chunks,
    bleu,
    decile_slices,
    greedy_decode,
    meteor_lite,
    pilot_deciles,
    rouge_l,
    spearman,
)
from gradsel.gradstats import GradientRecord
from gradsel.tinylm import (
    Batch,
    ModelConfig,
    Trainer,
    TrainHyper,
    forward,
    init_model,
    total_update_steps,
)
from gradsel.tinylm.model import SCORE_BATCH


def test_bleu_identity_and_disjoint():
    assert bleu([["a", "b", "c", "d"]], [["a", "b", "c", "d"]]) == pytest.approx(1.0)
    assert bleu([["x", "y", "z", "w"]], [["a", "b", "c", "d"]]) == 0.0


def test_bleu_brevity_penalty_hand_value():
    score = bleu([["a", "b", "c", "d"]], [["a", "b", "c", "d", "e"]])
    assert score == pytest.approx(math.exp(1 - 5 / 4), rel=1e-12)
    assert score == pytest.approx(0.7788, abs=5e-5)


def test_bleu_zero_when_any_order_empty():
    # unigrams overlap but no common bigram
    assert bleu([["a", "c", "b"]], [["a", "x", "b"]]) == 0.0
    # every order up to trigrams matches, but no 4-gram does
    assert bleu([["a", "b", "c", "x", "d"]], [["a", "b", "c", "y", "d"]]) == 0.0


def _brute_clipped(cand, ref, n):
    # independent n-gram multiset intersection
    cgrams = [tuple(cand[i:i + n]) for i in range(len(cand) - n + 1)]
    rgrams = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
    matched = 0
    pool = list(rgrams)
    for g in cgrams:
        if g in pool:
            pool.remove(g)
            matched += 1
    return matched, len(cgrams)


def test_bleu_clipping_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(20):
        cand = [int(x) for x in rng.integers(0, 5, rng.integers(1, 12))]
        ref = [int(x) for x in rng.integers(0, 5, rng.integers(1, 12))]
        match_sum, total_sum = [0] * 4, [0] * 4
        for n in range(1, 5):
            m, tot = _brute_clipped(cand, ref, n)
            match_sum[n - 1] += m
            total_sum[n - 1] += tot
        if any(m == 0 for m in match_sum):
            expected = 0.0
        else:
            logs = sum(math.log(m / t) for m, t in zip(match_sum, total_sum))
            bp = 1.0 if len(cand) > len(ref) else math.exp(1 - len(ref) / len(cand))
            expected = bp * math.exp(logs / 4)
        assert bleu([cand], [ref]) == pytest.approx(expected, rel=1e-12)


def test_bleu_corpus_invariant_to_pair_order():
    cands = [["a", "b", "c", "d"], ["e", "f", "g", "h"], ["a", "a", "b", "c"]]
    refs = [["a", "b", "c", "d"], ["e", "f", "x", "h"], ["a", "b", "b", "c"]]
    fwd = bleu(cands, refs)
    rev = bleu(cands[::-1], refs[::-1])
    assert fwd == pytest.approx(rev, rel=1e-15)


def test_bleu_input_validation():
    with pytest.raises(ValueError, match="no candidates"):
        bleu([], [])
    with pytest.raises(ValueError, match="mismatch"):
        bleu([["a"]], [["a"], ["b"]])
    with pytest.raises(ValueError, match="empty reference"):
        bleu([["a"]], [[]])


@lru_cache(maxsize=None)
def _lcs_oracle(a: tuple, b: tuple) -> int:
    # independent recursive LCS
    if not a or not b:
        return 0
    if a[-1] == b[-1]:
        return 1 + _lcs_oracle(a[:-1], b[:-1])
    return max(_lcs_oracle(a[:-1], b), _lcs_oracle(a, b[:-1]))


def test_rouge_hand_value():
    assert rouge_l(list("the cat sat".split()), list("the cat ran".split())) == \
        pytest.approx(2 / 3, rel=1e-12)
    assert rouge_l(["a", "b"], ["a", "b"]) == 1.0
    assert rouge_l(["x"], ["y"]) == 0.0
    assert rouge_l([], ["y"]) == 0.0


def test_rouge_matches_recursive_oracle():
    rng = np.random.default_rng(1)
    for _ in range(30):
        a = [int(x) for x in rng.integers(0, 4, rng.integers(1, 14))]
        b = [int(x) for x in rng.integers(0, 4, rng.integers(1, 14))]
        lcs = _lcs_oracle(tuple(a), tuple(b))
        if lcs == 0:
            expected = 0.0
        else:
            p, r = lcs / len(a), lcs / len(b)
            expected = 2 * p * r / (p + r)
        assert rouge_l(a, b) == pytest.approx(expected, rel=1e-12)


def test_rouge_longer_pairs_match_oracle():
    rng = np.random.default_rng(2)
    a = [int(x) for x in rng.integers(0, 6, 50)]
    b = [int(x) for x in rng.integers(0, 6, 50)]
    lcs = _lcs_oracle(tuple(a), tuple(b))
    p, r = lcs / 50, lcs / 50
    assert rouge_l(a, b) == pytest.approx(2 * p * r / (p + r), rel=1e-12)


def test_meteor_identity_formula():
    for m in (1, 2, 3, 6):
        cand = [f"w{i}" for i in range(m)]
        assert meteor_lite(cand, list(cand)) == pytest.approx(1 - 0.5 / m**3, rel=1e-12)
    assert meteor_lite(["a", "b", "c"], ["a", "b", "c"]) == pytest.approx(0.98148, abs=5e-6)


def test_meteor_zero_overlap():
    assert meteor_lite(["x", "y"], ["a", "b"]) == 0.0
    assert meteor_lite([], ["a"]) == 0.0


def test_meteor_reorder_penalty():
    one_chunk = meteor_lite(["a", "b"], ["a", "b"])
    two_chunks = meteor_lite(["b", "a"], ["a", "b"])
    assert two_chunks < one_chunk
    assert two_chunks == pytest.approx(1.0 * (1 - 0.5 * (2 / 2) ** 3), rel=1e-12)


def _chunks_oracle(cand, ref):
    # enumerate every maximum alignment by brute force
    cc, rc = Counter(cand), Counter(ref)
    quota = {w: min(c, rc[w]) for w, c in cc.items() if rc[w] > 0}
    m = sum(quota.values())
    if m == 0:
        return 0
    cand_slots = []
    for w, k in quota.items():
        occ = [i for i, x in enumerate(cand) if x == w]
        cand_slots.append((w, k, occ))
    best = [m + 1]

    def all_alignments(parts, chosen):
        if not parts:
            pairs_all = sorted(chosen)
            ref_opts = []
            for ci in pairs_all:
                ref_opts.append([j for j, x in enumerate(ref) if x == cand[ci]])
            for combo in itertools.product(*ref_opts):
                if len(set(combo)) != len(combo):
                    continue
                chunks = 0
                prev = (-5, -5)
                for ci, rj in zip(pairs_all, combo):
                    if not (ci == prev[0] + 1 and rj == prev[1] + 1):
                        chunks += 1
                    prev = (ci, rj)
                best[0] = min(best[0], chunks)
            return
        w, k, occ = parts[0]
        for subset in itertools.combinations(occ, k):
            all_alignments(parts[1:], chosen + list(subset))

    all_alignments(cand_slots, [])
    return best[0]


def test_meteor_chunks_match_exhaustive_oracle():
    rng = np.random.default_rng(3)
    for _ in range(40):
        cand = [f"w{int(x)}" for x in rng.integers(0, 4, rng.integers(1, 7))]
        ref = [f"w{int(x)}" for x in rng.integers(0, 4, rng.integers(1, 7))]
        quota = Counter(cand) & Counter(ref)
        m = sum(quota.values())
        if m == 0:
            assert meteor_lite(cand, ref) == 0.0
            continue
        chunks = _chunks_oracle(cand, ref)
        p = m / len(cand)
        r = m / len(ref)
        f_mean = p * r / (0.9 * p + 0.1 * r)
        expected = f_mean * (1 - 0.5 * (chunks / m) ** 3)
        assert meteor_lite(cand, ref) == pytest.approx(expected, rel=1e-12)


def _greedy_chunks(monkeypatch, cand, ref, quota):
    """_min_chunks with a node cap of 0, which stops the exact search at its
    first node, so the greedy fallback answers."""
    with monkeypatch.context() as patch:
        patch.setattr(evalmetrics, "METEOR_NODE_CAP", 0)
        return _min_chunks(cand, ref, quota)


def test_meteor_greedy_fallback_hand_value(monkeypatch):
    # Greedy aligns a->0, x->2, then b->1 in three runs; the exact search
    # skips the first "a" and takes "a b" as one run, plus "x": two.
    cand, ref = ["a", "x", "a", "b"], ["a", "b", "x"]
    quota = Counter(cand) & Counter(ref)
    assert _greedy_chunks(monkeypatch, cand, ref, quota) == 3
    assert _min_chunks(cand, ref, quota) == _chunks_oracle(cand, ref) == 2


def test_meteor_greedy_fallback_never_beats_the_exact_search(monkeypatch):
    rng = np.random.default_rng(5)
    for _ in range(60):
        cand = [f"w{int(x)}" for x in rng.integers(0, 4, rng.integers(1, 9))]
        ref = [f"w{int(x)}" for x in rng.integers(0, 4, rng.integers(1, 9))]
        quota = Counter(cand) & Counter(ref)
        if quota:
            exact = _min_chunks(cand, ref, quota)
            assert exact <= _greedy_chunks(monkeypatch, cand, ref, quota) <= sum(quota.values())


def test_scores_bounded():
    rng = np.random.default_rng(4)
    for _ in range(25):
        cand = [int(x) for x in rng.integers(0, 3, rng.integers(1, 9))]
        ref = [int(x) for x in rng.integers(0, 3, rng.integers(1, 9))]
        for v in (bleu([cand], [ref]), rouge_l(cand, ref),
                  meteor_lite(cand, ref)):
            assert 0.0 <= v <= 1.0


def test_decile_slices_rules():
    assert decile_slices(100) == [10] * 10
    assert decile_slices(103) == [11, 11, 11] + [10] * 7
    assert sum(decile_slices(47)) == 47
    assert max(decile_slices(47)) - min(decile_slices(47)) <= 1


def test_greedy_decode_budget_and_determinism():
    cfg = ModelConfig(16, 1, 2, 32, 40, 16, 0)
    m = init_model(cfg)
    assert greedy_decode(m, [[1, 5, 3]], [0]) == [[]]
    a = greedy_decode(m, [[1, 5, 3]], [8])
    assert a == greedy_decode(m, [[1, 5, 3]], [8])
    assert len(a[0]) <= 8


def _naive_decode(model, prompt, max_new, eos_id=2):
    """Reference: a full forward over the whole prefix per new token."""
    ids, out = list(prompt), []
    for _ in range(max_new):
        if len(ids) >= model.cfg.max_seq_len:
            break
        trace = forward(model, Batch(np.array([ids])), last_only=True)
        nxt = int(np.argmax(trace.logits[0]))
        if nxt == eos_id:
            break
        out.append(nxt)
        ids.append(nxt)
    return out


def test_greedy_decode_groups_match_one_prompt_at_a_time():
    cfg = ModelConfig(16, 2, 2, 32, 40, 12, 4)
    m = init_model(cfg)
    # EOS (id 2) wins sometimes; a constant shift of its column would not move
    # its logit, because the final layer norm's output sums to zero
    m.params["lm_head"][:, 2] += 0.05 * np.random.default_rng(0).normal(size=16)
    rng = np.random.default_rng(3)
    # the group of 40 equal-length prompts spans three SCORE_BATCH chunks
    prompts = [[1] + [int(t) for t in rng.integers(5, 40, n)] + [3]
               for n in (1, 3, 3, 1, 6, 3, 9, 1) + (2,) * 40]
    budgets = [4, 0, 7, 2, 5, 3, 6, 1] + [int(b) for b in rng.integers(0, 9, 40)]
    assert len(prompts) > 2 * SCORE_BATCH and 0 in budgets[8:]
    outs = greedy_decode(m, prompts, budgets)
    assert outs == [_naive_decode(m, p, n) for p, n in zip(prompts, budgets)]
    eos_stops = [i for i, (p, o, n) in enumerate(zip(prompts, outs, budgets))
                 if 0 < len(o) < n and len(p) + len(o) < cfg.max_seq_len]
    assert {(i - 8) // SCORE_BATCH for i in eos_stops if i >= 8} == {0, 1, 2}
    assert any(0 < len(o) == n for o, n in zip(outs, budgets))  # budget stops too


def test_greedy_decode_memory_does_not_grow_with_prompts():
    m = init_model(ModelConfig(32, 2, 2, 64, 273, 24, 0))
    rng = np.random.default_rng(5)

    def peak(n):
        prompts = [[1] + [int(t) for t in rng.integers(5, 273, 10)] + [3] for _ in range(n)]
        tracemalloc.start()
        try:
            greedy_decode(m, prompts, [12] * n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # decoding all 512 in one forward would peak about 16x higher
    assert peak(512) < 1.5 * peak(32)


def test_greedy_decode_reproduces_memorized_corpus():
    ds = synth_corpus(SynthSpec(5, 0, 0, seed=21))
    tok = build_vocab(ds, max_vocab=64)
    seqs = [encode_instance(tok, inst, 24) for inst in ds]
    cfg = ModelConfig(32, 2, 4, 64, tok.vocab_size, 24, init_seed=2)
    model = init_model(cfg)
    hyper = TrainHyper(learning_rate=3e-3, warmup_ratio=0.1, batch_size=5, shuffle_seed=0)
    Trainer(model, hyper, total_update_steps(len(seqs), hyper.batch_size, 150)).run(seqs)
    prompts, wants = [], []
    for seq in seqs:
        prompts.append(list(seq.decode_prompt))
        wants.append(list(seq.response))
    # response-only loss never trains the stop token, so the decode
    # budget is pinned to the reference length for the exactness check
    assert greedy_decode(model, prompts, [len(w) for w in wants]) == wants


def test_spearman_matches_scipy_with_ties():
    from scipy.stats import spearmanr

    rng = np.random.default_rng(13)
    cases = [
        ([1.0, 2.0, 3.0, 4.0], [10.0, 9.0, 8.0, 7.0]),
        ([1.0, 2.0, 2.0, 3.0, 5.0], [2.0, 1.0, 4.0, 4.0, 4.0]),
    ]
    cases += [(rng.integers(0, 4, 10).astype(float), rng.normal(size=10)) for _ in range(30)]
    cases += [(rng.normal(size=10), rng.normal(size=10)) for _ in range(10)]
    for x, y in cases:
        want = spearmanr(x, y).statistic
        assert spearman(x, y) == pytest.approx(want, rel=1e-12, abs=1e-15)
    assert math.isnan(spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))


def _rec(i, g):
    return GradientRecord(f"p{i:03d}", g, 0.0, g, 4, 2, "00" * 8, -1)


def test_pilot_requires_ten():
    cfg = ModelConfig(8, 1, 2, 16, 30, 12, 0)
    m = init_model(cfg)
    with pytest.raises(ValueError, match="at least 10"):
        pilot_deciles([_rec(i, 1.0 + i) for i in range(9)], [], m)


def test_pilot_decile_structure_and_csv():
    ds = synth_corpus(SynthSpec(73, 0, 0, seed=8))
    tok = build_vocab(ds, max_vocab=256)
    seqs = [encode_instance(tok, inst, 32) for inst in ds]
    cfg = ModelConfig(16, 1, 2, 32, tok.vocab_size, 32, 5)
    m = init_model(cfg)
    rng = np.random.default_rng(9)
    recs = [
        GradientRecord(s.instance_id, float(g), 0.0, float(g), 4, 2, "00" * 8, -1)
        for s, g in zip(seqs, rng.uniform(0.5, 2.0, len(seqs)))
    ]
    rep = pilot_deciles(recs, seqs, m)
    assert sum(rep.counts) == 73
    assert list(rep.counts) == decile_slices(73)
    assert len(rep.mean_loss) == 10
    # gradient ordering is descending across deciles
    assert all(a >= b for a, b in zip(rep.mean_gradient, rep.mean_gradient[1:]))
    csv = rep.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "decile,mean_loss,token_acc,count"
    assert len(lines) == 11
    assert lines[1].startswith("1,")


def test_pilot_deciles_match_one_instance_at_a_time():
    ds = synth_corpus(SynthSpec(23, 0, 0, seed=4))
    tok = build_vocab(ds, max_vocab=256)
    seqs = [encode_instance(tok, inst, 32) for inst in ds]
    m = init_model(ModelConfig(16, 1, 2, 32, tok.vocab_size, 32, 6))
    rng = np.random.default_rng(10)
    recs = [GradientRecord(s.instance_id, float(g), 0.0, float(g), 4, 2, "00" * 8, -1)
            for s, g in zip(seqs, rng.uniform(0.5, 2.0, len(seqs)))]
    rep = pilot_deciles(recs, seqs, m)
    by_id = {s.instance_id: s for s in seqs}
    order = sorted(recs, key=lambda r: (-r.g_grads, r.instance_id))
    ranked = [by_id[r.instance_id] for r in order]
    pos = 0
    for i, size in enumerate(decile_slices(len(ranked))):
        losses, hits, total = [], 0, 0
        for seq in ranked[pos : pos + size]:
            batch = Batch.of([seq])
            trace = forward(m, batch)
            losses.append(trace.losses[0])
            hits += int((trace.logits.argmax(axis=1) == batch.targets).sum())
            total += batch.targets.size
        pos += size
        assert rep.mean_loss[i] == float(np.mean(losses))
        assert rep.token_acc[i] == hits / total


def test_pilot_records_must_cover_dataset():
    cfg = ModelConfig(8, 1, 2, 16, 30, 12, 0)
    m = init_model(cfg)
    recs = [_rec(i, 1.0 + i) for i in range(10)]
    with pytest.raises(ValueError, match="not covered"):
        pilot_deciles(recs, [], m)
