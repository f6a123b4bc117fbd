"""Selection tests: bandwidth/KDE oracles, size rules, strategy semantics."""

import math
import tracemalloc

import numpy as np
import pytest

from gradsel import selector
from gradsel.gradstats import GradientRecord
from gradsel.selector import (
    KDE_BLOCK_CELLS,
    descending_order,
    descending_ranks,
    kde_density,
    minmax_unit,
    select_by_density,
    select_strategy,
    selection_from_order,
    silverman_bandwidth,
    subset_size,
    attach_strata,
    weight_values,
    weightr_values,
)


def _rec(i, g_emb, g_lm=0.0):
    return GradientRecord(
        instance_id=f"r{i:03d}",
        g_emb=float(g_emb),
        g_lm=float(g_lm),
        g_grads=float(g_emb) + float(g_lm),
        n_emb_tokens=4,
        n_lm_tokens=2,
        model_fingerprint="00" * 8,
        step_index=-1,
    )


def _brute_kde(values, h):
    # direct transcription of the kernel sum, no vectorization shared with the code
    n = len(values)
    out = []
    for xi in values:
        s = 0.0
        for xj in values:
            u = (xi - xj) / h
            s += math.exp(-0.5 * u * u) / math.sqrt(2 * math.pi)
        out.append(s / (n * h))
    return out


def _dense_kde(values, h, xs):
    # the unblocked len(xs) x n kernel matrix: the bit-exact reference
    x = np.asarray(values, dtype=float)
    pts = np.asarray(xs, dtype=float)
    z = (pts[:, None] - x[None, :]) / h
    return np.exp(-0.5 * z * z).sum(axis=1) / (x.size * h * math.sqrt(2.0 * math.pi))


def test_silverman_hand_value():
    h = silverman_bandwidth([1, 2, 3, 4, 5])
    # std = sqrt(2.5) = 1.58114, IQR = 2, min(1.58114, 1.49254) * 0.9 * 5^-0.2
    assert h == pytest.approx(0.9 * (2 / 1.34) * 5 ** (-0.2), rel=1e-12)
    # exact value 0.9735846; 0.97362 is the same formula hand-rounded
    assert h == pytest.approx(0.97362, abs=5e-5)


def test_silverman_scales_homogeneously():
    base = silverman_bandwidth([0.5, 1.1, 2.7, 3.1, 4.9, 5.0])
    scaled = silverman_bandwidth([c * 3.7 for c in [0.5, 1.1, 2.7, 3.1, 4.9, 5.0]])
    assert scaled == pytest.approx(3.7 * base, rel=1e-12)


def test_silverman_iqr_zero_falls_back_to_std():
    vals = [5.0] * 7 + [9.0]
    h = silverman_bandwidth(vals)
    assert h == pytest.approx(0.9 * np.std(vals, ddof=1) * 8 ** (-0.2), rel=1e-12)


def test_silverman_degenerate_cases():
    assert silverman_bandwidth([2.0, 2.0]) is None
    assert silverman_bandwidth([0.1] * 3) is None  # np.std gives 1.7e-17 here, not 0
    with pytest.raises(ValueError, match="at least two values, got 1"):
        silverman_bandwidth([1.0])
    with pytest.raises(ValueError, match="got 0"):
        silverman_bandwidth([])


@pytest.mark.parametrize("strategy", ["grads", "emb_only", "lm_only", "weight"])
def test_constant_values_keep_the_first_instances_without_a_bandwidth(strategy):
    recs = [_rec(i, 0.3, 0.1) for i in range(10)]
    res = select_strategy(recs, strategy, 40)
    assert res.selected_ids == res.ordered_ids == ("r000", "r001", "r002", "r003")
    assert res.bandwidth is None and res.f_values == {}


def test_kde_single_point_kernel_center():
    f = kde_density([0.0], 1.0, [0.0])
    assert f[0] == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-12)


def test_kde_two_point_hand_value():
    f = kde_density([0.0, 1.0], 1.0, [0.0, 1.0])
    phi0 = 1 / math.sqrt(2 * math.pi)
    phi1 = math.exp(-0.5) / math.sqrt(2 * math.pi)
    assert f[0] == pytest.approx(0.5 * (phi0 + phi1), rel=1e-12)
    assert f[0] == pytest.approx(0.32046, abs=5e-6)


def test_blocked_kde_matches_dense_bit_for_bit(monkeypatch):
    block = math.isqrt(KDE_BLOCK_CELLS)  # above this n, n points span two blocks
    rng = np.random.default_rng(12)
    for n in (block - 1, block, block + 1):
        values = rng.gamma(2.0, 1.0, n).round(2)  # rounded: many exact ties
        h = silverman_bandwidth(values)
        for xs in (values, np.linspace(-1.0, 12.0, 3 * n + 5), values[:7]):
            assert np.array_equal(kde_density(values, h, xs), _dense_kde(values, h, xs))
    # a budget below one row still evaluates whole rows, one at a time
    monkeypatch.setattr(selector, "KDE_BLOCK_CELLS", 5)
    values = rng.normal(size=33)
    xs = np.linspace(-3.0, 3.0, 11)
    assert np.array_equal(kde_density(values, 0.4, xs), _dense_kde(values, 0.4, xs))


def test_kde_memory_stays_bounded():
    values = np.random.default_rng(13).normal(size=4096)
    tracemalloc.start()
    try:
        kde_density(values, 0.3, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # two 256 KB kernel buffers and the output; the dense 4096 x 4096 formula
    # peaks near 400 MB
    assert peak < 2**20


def test_kde_matches_brute_force():
    rng = np.random.default_rng(0)
    vals = list(rng.normal(size=40))
    h = silverman_bandwidth(vals)
    f = kde_density(vals, h, vals)
    brute = _brute_kde(vals, h)
    for s, b in zip(f, brute):
        assert s == pytest.approx(b, rel=1e-12)
        assert s > 0


def test_subset_size_rules():
    assert subset_size(10, 50) == 5
    assert subset_size(7, 50) == 4       # 3.5 rounds half-up
    assert subset_size(10, 100) == 10
    assert subset_size(200, 1) == 2
    assert subset_size(3, 1) == 1        # max(1, ...) floor
    assert subset_size(8, 12.5) == 1
    assert subset_size(1000, 0.05) == 1  # 0.5 rounds up, already >= 1
    assert subset_size(1000, 0.15) == 2  # 1.5 rounds half-up, no float fuzz
    with pytest.raises(ValueError):
        subset_size(10, 0)
    with pytest.raises(ValueError):
        subset_size(10, 101)


def _keep_densest(f, percent):
    """The ranking select_by_density applies to its densities f."""
    ids = [f"s{i}" for i in range(len(f))]
    return selection_from_order("grads", percent, ids, descending_order(f), f)


def test_densest_counts_and_order():
    res = _keep_densest([0.5, 0.9, 0.1, 0.7], 50)
    assert res.selected_ids == ("s1", "s3")
    assert res.ordered_ids == ("s1", "s3")
    full = _keep_densest([0.5, 0.9, 0.1, 0.7], 100)
    assert full.selected_ids == ("s0", "s1", "s2", "s3")


def test_densest_tie_break_by_index():
    res = _keep_densest([1.0] * 4, 50)
    assert res.selected_ids == ("s0", "s1")


def test_select_by_density_boundary_dominance():
    rng = np.random.default_rng(3)
    vals = rng.uniform(size=31)
    ids = [f"s{i}" for i in range(31)]
    res = select_by_density(vals, ids, 37, "grads")
    assert res.bandwidth == silverman_bandwidth(vals)
    assert list(res.f_values.values()) == kde_density(vals, res.bandwidth, vals).tolist()
    kept = {f for i, f in res.f_values.items() if i in res.selected_ids}
    dropped = {f for i, f in res.f_values.items() if i not in res.selected_ids}
    assert len(kept) == subset_size(31, 37)
    assert min(kept) >= max(dropped)


def test_density_selection_scale_invariant():
    rng = np.random.default_rng(4)
    g = np.concatenate([rng.normal(1.0, 0.05, 30), rng.normal(3.0, 0.05, 30)])
    recs = [_rec(i, v) for i, v in enumerate(g)]
    base = select_strategy(recs, "grads", 40)
    scaled_recs = [_rec(i, v * 17.3) for i, v in enumerate(g)]
    scaled = select_strategy(scaled_recs, "grads", 40)
    assert base.selected_ids == scaled.selected_ids


def test_bimodal_takes_both_clusters_drops_outlier():
    rng = np.random.default_rng(5)
    low = rng.normal(1.0, 0.03, 25)
    high = rng.normal(5.0, 0.03, 25)
    recs = [_rec(i, v) for i, v in enumerate(np.concatenate([low, high, [40.0]]))]
    res = select_strategy(recs, "grads", 50)
    picked = set(res.selected_ids)
    assert any(f"r{i:03d}" in picked for i in range(25))
    assert any(f"r{i:03d}" in picked for i in range(25, 50))
    assert "r050" not in picked


def test_grads_equals_emb_only_when_lm_zero():
    rng = np.random.default_rng(6)
    recs = [_rec(i, v, 0.0) for i, v in enumerate(rng.uniform(1, 2, 40))]
    a = select_strategy(recs, "grads", 30)
    b = select_strategy(recs, "emb_only", 30)
    assert a.selected_ids == b.selected_ids


def test_top_and_tail_windows():
    recs = [_rec(i, v) for i, v in enumerate([1.0, 2.0, 3.0, 4.0])]
    top = select_strategy(recs, "top_grad", 50)
    assert top.selected_ids == ("r002", "r003")
    tail = select_strategy(recs, "tail_grad", 50)
    assert tail.selected_ids == ("r000", "r001")


def test_mid_window_centered_on_median():
    recs = [_rec(i, v) for i, v in enumerate([5.0, 4.0, 3.0, 2.0, 1.0])]
    mid = select_strategy(recs, "mid_grad", 40)
    # descending order r000..r004; size 2, margin (5-2)//2=1 -> ranks 2..3
    assert mid.selected_ids == ("r001", "r002")


def test_weight_transform_minmax():
    recs = [
        _rec(0, 1.0, 10.0),
        _rec(1, 2.0, 30.0),
        _rec(2, 3.0, 20.0),
    ]
    vals = weight_values(recs)
    np.testing.assert_allclose(vals, [0.0 + 0.0, 0.5 + 1.0, 1.0 + 0.5])
    assert np.all(minmax_unit(np.array([2.0, 2.0])) == 0.0)


def test_weightr_hand_rank_table():
    # g_emb {10,20,30} -> descending ranks 3,2,1; g_lm {30,20,10} -> 1,2,3
    recs = [_rec(0, 10.0, 30.0), _rec(1, 20.0, 20.0), _rec(2, 30.0, 10.0)]
    np.testing.assert_allclose(
        weightr_values(recs), [1 / 3 + 1 / 1, 1 / 2 + 1 / 2, 1 / 1 + 1 / 3]
    )
    assert list(descending_ranks(np.array([10.0, 20.0, 30.0]))) == [3.0, 2.0, 1.0]
    # ties: earlier index outranks
    assert list(descending_ranks(np.array([5.0, 5.0]))) == [1.0, 2.0]


def test_weight_strategies_run_end_to_end():
    rng = np.random.default_rng(7)
    recs = [_rec(i, a, b) for i, (a, b) in
            enumerate(zip(rng.uniform(1, 2, 30), rng.uniform(0.1, 3, 30)))]
    for strat in ("weight", "weightr", "lm_only"):
        res = select_strategy(recs, strat, 20)
        assert len(res.selected_ids) == 6
        assert len(set(res.selected_ids)) == 6


def test_unknown_strategy_and_empty_records():
    with pytest.raises(ValueError, match="unknown strategy"):
        select_strategy([_rec(0, 1.0)], "best_grad", 50)
    with pytest.raises(ValueError):
        select_strategy([], "grads", 50)
    with pytest.raises(ValueError):
        select_by_density(np.array([]), [], 50, "grads")
    with pytest.raises(ValueError):
        _keep_densest([], 50)


def test_permutation_invariance_of_selected_set():
    rng = np.random.default_rng(8)
    g = list(rng.uniform(1, 4, 25))
    recs = [_rec(i, v) for i, v in enumerate(g)]
    res = select_strategy(recs, "grads", 40)
    perm = list(range(25))
    rng.shuffle(perm)
    shuffled = [recs[i] for i in perm]
    res2 = select_strategy(shuffled, "grads", 40)
    assert set(res.selected_ids) == set(res2.selected_ids)


def test_attach_strata_counts():
    recs = [_rec(i, v) for i, v in enumerate([1.0, 1.01, 5.0, 1.02])]
    res = select_strategy(recs, "grads", 75)
    strata = {"r000": "domain", "r001": "noise", "r002": None, "r003": "domain"}
    tagged = attach_strata(res, strata)
    assert sum(tagged.stratum_counts.values()) == len(res.selected_ids)


def test_numpy_rankings_match_sorted_reference():
    rng = np.random.default_rng(14)
    for n in (1, 2, 9, 64, 257):
        x = rng.integers(0, 4, n) * 0.5  # tie-heavy
        x[rng.random(n) < 0.2] = -0.0  # ties with 0.0
        desc = sorted(range(n), key=lambda i: (-x[i], i))
        asc = sorted(range(n), key=lambda i: (x[i], i))
        assert descending_order(x) == desc
        ranks = np.empty(n)
        for rank, i in enumerate(desc, start=1):
            ranks[i] = rank
        assert np.array_equal(descending_ranks(x), ranks)

        size = subset_size(n, 50)
        recs = [_rec(i, v) for i, v in enumerate(x)]
        lo = (n - size) // 2
        for strategy, ref in (("top_grad", desc[:size]), ("tail_grad", asc[:size]),
                              ("mid_grad", desc[lo : lo + size])):
            res = select_strategy(recs, strategy, 50)
            assert res.ordered_ids == tuple(recs[i].instance_id for i in ref)
            assert res.selected_ids == tuple(recs[i].instance_id for i in sorted(ref))
        res = _keep_densest(x, 50)
        assert res.ordered_ids == tuple(f"s{i}" for i in desc[:size])
