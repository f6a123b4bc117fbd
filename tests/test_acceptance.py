"""Acceptance suite: eleven release criteria, one test per criterion.

Criteria 1-4 and 9-10 are direct oracle checks at their stated tolerances.
Criteria 5-8 share one desk-scale pipeline fixture (700 domain / 150 noise /
150 trivial corpus at three seeds); criterion 11 runs a one-seed transfer of
gradient records between two model widths. Every test prints a single
criterion verdict line with its measured numbers.
"""

import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from gradsel import pipeline
from gradsel.corpus import TokenSequence
from gradsel.baselines import DSIR_BUCKETS, dsir_log_weights, hash_bucket, select_random
from gradsel.evalmetrics import _clipped_matches, meteor_lite, rouge_l
from gradsel.gradstats import GradientRecord
from gradsel.pipeline import (
    RunConfig,
    run_compare,
    run_extract,
    run_pilot,
    run_select,
    run_synth,
)
from gradsel.selector import (
    STRATEGIES,
    kde_density,
    select_strategy,
    selection_from_order,
    silverman_bandwidth,
    subset_size,
)
from gradsel.tinylm import (
    Batch,
    ModelConfig,
    forward,
    init_model,
    loss_and_grads,
    param_views,
)

SMALL = ModelConfig(
    d_model=16, n_layers=2, n_heads=2, d_ff=32,
    vocab_size=50, max_seq_len=12, init_seed=3,
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}")


def _random_seq(rng, t_prompt=4, t_resp=5):
    toks = [1] + list(rng.integers(5, 50, t_prompt)) + [3]
    toks += list(rng.integers(5, 50, t_resp)) + [2]
    return TokenSequence("t0", tuple(int(t) for t in toks), 1 + t_prompt)


def _rec(i: int, g: float) -> GradientRecord:
    return GradientRecord(
        instance_id=f"r{i:04d}", g_emb=g, g_lm=0.0, g_grads=g,
        n_emb_tokens=4, n_lm_tokens=2, model_fingerprint="00" * 8, step_index=-1,
    )


# ---------------------------------------------------------------------------
# corpus-scale fixtures shared by the trend criteria


def _trend_cfg(root, seed):
    return RunConfig(
        dataset=f"{root}/dataset.jsonl", out_dir=f"{root}/cmp",
        seed=seed, batch_size=4,
    )


@pytest.fixture(scope="module")
def trend_runs(tmp_path_factory):
    """One compare sweep, full-corpus selection, and pilot per seed."""
    runs = {}
    for seed in (42, 43, 44):
        root = str(tmp_path_factory.mktemp(f"trend{seed}"))
        run_synth(root, 700, 150, 150, seed)
        cfg = _trend_cfg(root, seed)
        t0 = time.perf_counter()
        report = run_compare(
            cfg, ["grads", "random", "top_grad", "weightr"], [50.0]
        )
        seconds = time.perf_counter() - t0
        records = f"{root}/cmp/records.jsonl"
        selection = run_select(replace(cfg, out_dir=f"{root}/sel"), records, "grads", 50.0)
        pilot = run_pilot(
            replace(cfg, out_dir=f"{root}/pilot"), records_path=records
        )
        runs[seed] = {
            "report": report,
            "selection": selection,
            "spearman": pilot["loss_gradient_spearman"],
            "seconds": seconds,
        }
    return runs


def _row(report, name: str) -> dict:
    return next(r for r in report.rows if r["row"] == name)


def _row_mean(runs, name, key):
    return float(np.mean([_row(r["report"], name)[key] for r in runs.values()]))


# ---------------------------------------------------------------------------
# criterion 1: every gradient matches central finite differences


def test_criterion_01_gradient_finite_difference_exactness():
    t0 = time.perf_counter()
    eps = 1e-5
    model = init_model(SMALL)
    batch = Batch.of([_random_seq(np.random.default_rng(11))])
    trace = forward(model, batch)
    res = loss_and_grads(model, batch, trace)
    param_grads = param_views(SMALL, res.param_grads)
    coords = checked = 0

    def loss():
        return float(forward(model, batch).losses[0])

    # per-token embedding gradients, full grid: pos[t] enters only the
    # embedding-layer output at position t, so its central difference is
    # the gradient there
    pos = model.params["pos"]
    for t in range(res.g_emb.shape[1]):
        for j in range(res.g_emb.shape[2]):
            orig = pos[t, j]
            pos[t, j] = orig + eps
            lp = loss()
            pos[t, j] = orig - eps
            lm = loss()
            pos[t, j] = orig
            fd = (lp - lm) / (2 * eps)
            coords += 1
            checked += math.isclose(res.g_emb[0, t, j], fd, rel_tol=1e-4, abs_tol=1e-8)

    # parameter gradients, sampled coordinates from every tensor
    pick = np.random.default_rng(12)
    for name, arr in model.params.items():
        flat = arr.reshape(-1)
        for idx in pick.choice(flat.size, size=min(40, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            lp = loss()
            flat[idx] = orig - eps
            lm = loss()
            flat[idx] = orig
            fd = (lp - lm) / (2 * eps)
            coords += 1
            checked += math.isclose(
                param_grads[name].reshape(-1)[idx], fd,
                rel_tol=1e-4, abs_tol=1e-8,
            )
    seconds = time.perf_counter() - t0
    ok = checked == coords and seconds < 60.0
    _verdict(1, ok, f"{checked}/{coords} coordinates within 1e-4, {seconds:.1f}s")
    assert checked == coords
    assert seconds < 60.0


# ---------------------------------------------------------------------------
# criterion 2: recorded head gradient equals (softmax - onehot) * weight


def test_criterion_02_analytic_lm_head_gradient():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(100):
        model = init_model(replace(SMALL, init_seed=int(rng.integers(1 << 16))))
        seq = _random_seq(rng, t_prompt=int(rng.integers(1, 5)),
                          t_resp=int(rng.integers(1, 6)))
        batch = Batch.of([seq])
        trace = forward(model, batch)
        res = loss_and_grads(model, batch, trace, want_param_grads=False)
        expected = np.zeros_like(res.g_lm)
        for row, t in enumerate(seq.loss_positions):
            expected[row] = trace.probs[row] * batch.w[0]
            expected[row, seq.tokens[t + 1]] -= batch.w[0]
        worst = max(worst, float(np.abs(res.g_lm - expected).max()))
    ok = worst <= 1e-12
    _verdict(2, ok, f"max |g_lm - (p - y)*w| = {worst:.2e} over 100 instances")
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# criterion 3: fitted density integrates to one; two-point hand value


def test_criterion_03_kde_density_normalization():
    rng = np.random.default_rng(31)
    worst = 1.0
    for _ in range(20):
        n = int(rng.integers(10, 501))
        values = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 4.0), n)
        h = silverman_bandwidth(values)
        xs = np.linspace(values.min() - 5 * h, values.max() + 5 * h, 4001)
        integral = float(np.trapezoid(kde_density(values, h, xs), xs))
        worst = max(worst, abs(integral - 1.0) + 1.0)
        assert 0.99 <= integral <= 1.01
    f0 = float(kde_density([0.0, 1.0], 1.0, [0.0])[0])
    hand = 0.5 * (1 + math.exp(-0.5)) / math.sqrt(2 * math.pi)
    ok = abs(f0 - hand) < 1e-12 and abs(f0 - 0.32046) < 1e-5
    _verdict(3, ok, f"20 integrals within {worst - 1.0:.4f} of 1, f(0) = {f0:.6f}")
    assert f0 == pytest.approx(hand, rel=1e-12)
    assert abs(f0 - 0.32046) < 1e-5


# ---------------------------------------------------------------------------
# criterion 4: selector size rule, density cut, and invariances


def _select(records, strategy, percent):
    """select_strategy's ranking cut to the budget, as the pipeline cuts it."""
    order, scores, h = select_strategy(records, strategy, percent)
    ids = [r.instance_id for r in records]
    return selection_from_order(strategy, percent, ids, order, scores, bandwidth=h)


def test_criterion_04_selector_invariants():
    rng = np.random.default_rng(41)

    for k in (1, 2, 3, 7, 10, 33, 100, 250):
        records = [_rec(i, float(g)) for i, g in enumerate(rng.normal(1.0, 0.3, k))]
        for percent in (1, 10, 25, 50, 75, 90, 100):
            expected = max(1, int(Fraction(str(percent)) * k / 100 + Fraction(1, 2)))
            assert subset_size(k, percent) == expected
            if k >= 2:  # density fit needs a defined sample spread
                result = _select(records, "grads", percent)
                assert len(result.selected_ids) == expected

    values = [float(g) for g in rng.lognormal(0.0, 0.5, 60)]
    records = [_rec(i, g) for i, g in enumerate(values)]
    result = _select(records, "grads", 40)
    chosen = set(result.selected_ids)
    lo = min(result.f_values[i] for i in chosen)
    hi = max(v for i, v in result.f_values.items() if i not in chosen)
    assert lo >= hi

    base = set(_select(records, "grads", 35).selected_ids)
    for _ in range(20):
        scale = float(np.exp(rng.uniform(-3, 3)))
        scaled = [_rec(i, g * scale) for i, g in enumerate(values)]
        assert set(_select(scaled, "grads", 35).selected_ids) == base

    shuffled = list(records)
    rng.shuffle(shuffled)
    assert set(_select(shuffled, "grads", 35).selected_ids) == base
    _verdict(4, True, "size rule, density cut, rescale and permutation invariance")


# ---------------------------------------------------------------------------
# criterion 5: selection composition on the labeled corpus


def test_criterion_05_noise_and_domain_composition(trend_runs):
    noise_rate = 150 / 1000
    noise_fracs, domain_fracs = [], []
    for run in trend_runs.values():
        counts = run["selection"].stratum_counts
        total = sum(counts.values())
        noise_fracs.append(counts.get("noise", 0) / total)
        domain_fracs.append(counts.get("domain", 0) / total)
    noise_frac = float(np.mean(noise_fracs))
    domain_frac = float(np.mean(domain_fracs))
    ok = noise_frac < noise_rate / 2 and domain_frac >= 0.80
    _verdict(5, ok, f"noise fraction {noise_frac:.4f} < {noise_rate / 2}, "
                    f"domain fraction {domain_frac:.4f} >= 0.80 (3-seed mean)")
    assert noise_frac < noise_rate / 2
    assert domain_frac >= 0.80


# ---------------------------------------------------------------------------
# criterion 6: decile index correlates with base-model loss


def test_criterion_06_decile_loss_correlation(trend_runs):
    rhos = [run["spearman"] for run in trend_runs.values()]
    mean_rho = float(np.mean(rhos))
    ok = mean_rho >= 0.6
    _verdict(6, ok, "decile/loss spearman " +
             " ".join(f"{r:.3f}" for r in rhos) + f", mean {mean_rho:.3f} >= 0.6")
    assert mean_rho >= 0.6


# ---------------------------------------------------------------------------
# criterion 7: selected half beats full data and random half


def test_criterion_07_selected_half_beats_full_and_random(trend_runs):
    grads_b = _row_mean(trend_runs, "grads@50", "bleu")
    grads_r = _row_mean(trend_runs, "grads@50", "rouge_l")
    all_b = _row_mean(trend_runs, "all", "bleu")
    all_r = _row_mean(trend_runs, "all", "rouge_l")
    rand_b = _row_mean(trend_runs, "random@50", "bleu")
    rand_r = _row_mean(trend_runs, "random@50", "rouge_l")
    seconds = sum(run["seconds"] for run in trend_runs.values())
    ok = (grads_b >= all_b and grads_r >= all_r
          and grads_b > rand_b and grads_r > rand_r and seconds < 900)
    _verdict(7, ok, f"bleu {grads_b:.3f} >= all {all_b:.3f} > random {rand_b:.3f}; "
                    f"rouge {grads_r:.3f} >= all {all_r:.3f} > random {rand_r:.3f}; "
                    f"{seconds:.0f}s")
    assert grads_b >= all_b and grads_r >= all_r
    assert grads_b > rand_b and grads_r > rand_r
    assert seconds < 900


# ---------------------------------------------------------------------------
# criterion 8: density beats raw-magnitude ablations


def test_criterion_08_ablation_ordering(trend_runs):
    grads = _row_mean(trend_runs, "grads@50", "bleu")
    top = _row_mean(trend_runs, "top_grad@50", "bleu")
    weightr = _row_mean(trend_runs, "weightr@50", "bleu")

    records = [_rec(i, float(g)) for i, g in enumerate((5, 1, 9, 3, 7, 2, 8, 4, 6, 0))]
    oracle = {"r0002", "r0006", "r0004", "r0008", "r0000"}  # g = 9 8 7 6 5
    picked = set(_select(records, "top_grad", 50).selected_ids)

    ok = grads >= top and grads >= weightr and picked == oracle
    _verdict(8, ok, f"bleu grads {grads:.3f} >= top_grad {top:.3f}, "
                    f"weightr {weightr:.3f}; top-half oracle exact")
    assert picked == oracle
    assert grads >= top
    assert grads >= weightr


# ---------------------------------------------------------------------------
# criterion 9: metric implementations against brute-force oracles


def test_criterion_09_metric_oracles():
    rng = np.random.default_rng(91)

    def brute(cand, ref, n):
        grams = [tuple(cand[i:i + n]) for i in range(len(cand) - n + 1)]
        pool = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
        hit = 0
        for g in grams:
            if g in pool:
                pool.remove(g)
                hit += 1
        return hit, len(grams)

    for _ in range(20):
        cand = [int(x) for x in rng.integers(0, 5, rng.integers(1, 14))]
        ref = [int(x) for x in rng.integers(0, 5, rng.integers(1, 14))]
        for n in range(1, 5):
            assert _clipped_matches(cand, ref, n) == brute(cand, ref, n)

    def lcs(a, b):
        table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
        for i in range(1, len(a) + 1):
            for j in range(1, len(b) + 1):
                table[i][j] = (table[i - 1][j - 1] + 1 if a[i - 1] == b[j - 1]
                               else max(table[i - 1][j], table[i][j - 1]))
        return table[-1][-1]

    for _ in range(50):
        a = [int(x) for x in rng.integers(0, 5, rng.integers(1, 20))]
        b = [int(x) for x in rng.integers(0, 5, rng.integers(1, 20))]
        n = lcs(a, b)
        expected = 0.0 if n == 0 else 2 * (n / len(a)) * (n / len(b)) / (n / len(a) + n / len(b))
        assert rouge_l(a, b) == pytest.approx(expected, rel=1e-12)

    worst = 0.0
    for m in range(1, 25):
        cand = [f"w{i}" for i in range(m)]
        worst = max(worst, abs(meteor_lite(cand, list(cand)) - (1 - 0.5 / m**3)))
    ok = worst <= 1e-12
    _verdict(9, ok, f"bleu/rouge oracles exact, meteor identity within {worst:.1e}")
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# criterion 10: baseline weights and determinism


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("small"))
    run_synth(root, 60, 15, 15, seed=7)
    cfg = RunConfig(
        dataset=f"{root}/dataset.jsonl", out_dir=f"{root}/ext",
        seed=7, d_model=16, warmup_steps=30,
    )
    return cfg, run_extract(cfg)


def test_criterion_10_baseline_determinism(small_run, tmp_path):
    # a, b, a|a, a|b in four buckets; each p/q is the add-one smoothed
    # target share ((t + 1) / (9 + buckets)) over the candidate share (c / 6)
    assert len({hash_bucket(f) for f in ("a", "b", "a\x1fa", "a\x1fb")}) == 4
    logw = dsir_log_weights([["a", "a", "b"], ["b"]], [["a"] * 4 + ["b"]])
    r = {f: Fraction(t + 1, 9 + DSIR_BUCKETS) / Fraction(c, 6)
         for f, t, c in (("a", 4, 2), ("b", 1, 2), ("aa", 3, 1), ("ab", 1, 1))}
    assert math.exp(logw[0]) == pytest.approx(
        float(r["a"] ** 2 * r["b"] * r["aa"] * r["ab"]), rel=1e-12)

    counts = [0] * 20
    trials = 10_000
    for seed in range(trials):
        for picked in select_random(20, seed)[: subset_size(20, 50.0)]:
            counts[picked] += 1
    freqs = [c / trials for c in counts]
    spread = max(abs(f - 0.5) for f in freqs)
    assert spread <= 0.02

    cfg, out = small_run
    for name in pipeline.SELECTION_NAMES[len(STRATEGIES):]:  # the baselines
        pair = []
        for sub in ("a", "b"):
            run_select(
                replace(cfg, out_dir=str(tmp_path / f"{name}_{sub}")),
                out["records"], name, 50.0,
            )
            pair.append(
                (tmp_path / f"{name}_{sub}" / f"selection_{name}.jsonl").read_bytes()
            )
        assert pair[0] == pair[1], f"{name} selection not reproducible"
    _verdict(10, True, f"dsir weights exact, random spread {spread:.4f} <= 0.02, "
                       f"6 baselines byte-stable")


# ---------------------------------------------------------------------------
# criterion 11: records from one model drive selection for another


def test_criterion_11_cross_model_transfer(tmp_path):
    root = str(tmp_path)
    run_synth(root, 700, 150, 150, 42)
    cfg_a = RunConfig(
        dataset=f"{root}/dataset.jsonl", out_dir=f"{root}/a",
        seed=42, batch_size=4, d_model=16,
    )
    extracted = run_extract(cfg_a)
    cfg_b = replace(cfg_a, d_model=32, out_dir=f"{root}/b")
    report = run_compare(
        cfg_b, ["grads", "random"], [50.0], records_path=extracted["records"]
    )
    grads_b = _row(report, "grads@50")["bleu"]
    rand_b = _row(report, "random@50")["bleu"]
    ok = grads_b > rand_b
    _verdict(11, ok, f"d=16 records -> d=32 tuning: bleu {grads_b:.3f} > random {rand_b:.3f}")
    assert grads_b > rand_b
