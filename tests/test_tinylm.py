"""Transformer tests: finite-difference oracles, analytic identities, training.

The finite-difference checks are the ground truth for every gradient the
package reports; they re-derive each derivative numerically from the loss
alone, sharing no code with the backward pass. Every forward and backward
runs on a padded batch; a single sequence is a batch of one.
"""

import copy
import math
import pickle
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradsel.baselines import sequence_perplexities
from gradsel.corpus import SynthSpec, TokenSequence, build_vocab, encode_instance, synth_corpus
from gradsel.rng import ROLE_INIT, substream
from gradsel.tinylm import (
    Batch,
    ModelConfig,
    TrainHyper,
    Trainer,
    forward,
    frozen_gradients,
    init_model,
    load_checkpoint,
    loss_and_grads,
    model_fingerprint,
    param_shapes,
    param_views,
    save_checkpoint,
    total_update_steps,
    warmup_lr,
)
from gradsel.tinylm.model import SCORE_BATCH

TINY = ModelConfig(
    d_model=16, n_layers=2, n_heads=2, d_ff=32,
    vocab_size=50, max_seq_len=12, init_seed=7,
)
# Long enough for key sums of 8+ terms, where numpy's pairwise summation
# would regroup if padding were summed.
WIDE = ModelConfig(
    d_model=16, n_layers=2, n_heads=2, d_ff=32,
    vocab_size=50, max_seq_len=40, init_seed=11,
)


def _seq(tokens, sep_pos, instance_id="t0"):
    return TokenSequence(instance_id, tuple(tokens), sep_pos)


def _random_seq(rng: np.random.Generator, cfg: ModelConfig, t_prompt=4, t_resp=4,
                instance_id="t0"):
    toks = [1] + list(rng.integers(5, cfg.vocab_size, t_prompt)) + [3]
    toks += list(rng.integers(5, cfg.vocab_size, t_resp)) + [2]
    return _seq([int(t) for t in toks], 1 + t_prompt, instance_id)


def _run(model, seqs, want_param_grads=True):
    """seqs is a list of sequences, or a Batch built directly."""
    batch = seqs if isinstance(seqs, Batch) else Batch.of(seqs)
    trace = forward(model, batch)
    return batch, trace, loss_and_grads(model, batch, trace, want_param_grads)


def _hyper(batch_size=8, shuffle_seed=0):
    return TrainHyper(learning_rate=3e-3, warmup_ratio=0.1, batch_size=batch_size,
                      shuffle_seed=shuffle_seed)


def _train(model, seqs, hyper, epochs=1):
    Trainer(model, hyper, total_update_steps(len(seqs), hyper.batch_size, epochs)).run(seqs)
    return model


def _mean_loss(model, batch):
    return float(forward(model, batch).losses.sum()) / len(batch.ids)


def _pos_fd(model, batch, b, t, j, eps=1e-5):
    """Central difference of instance b's loss in pos[t, j]. pos[t] enters
    only the embedding-layer output e[:, t], and instance b's loss reads only
    e[b], so this is dLoss_b/de[b, t, j]: the g_emb entry."""
    pos = model.params["pos"]
    orig = pos[t, j]
    pos[t, j] = orig + eps
    lp = forward(model, batch).losses[b]
    pos[t, j] = orig - eps
    lm = forward(model, batch).losses[b]
    pos[t, j] = orig
    return (lp - lm) / (2 * eps)


def test_init_deterministic_and_validated():
    a = init_model(TINY)
    b = init_model(TINY)
    assert np.array_equal(a.flat, b.flat)
    with pytest.raises(ValueError):
        init_model(ModelConfig(16, 1, 3, 32, 50, 12, 0))


def test_init_matches_scalar_normal_stream():
    for cfg in (TINY, replace(TINY, n_layers=3, init_seed=99)):
        m = init_model(cfg)
        rng = substream(cfg.init_seed, ROLE_INIT)
        for name, p in m.params.items():
            leaf = name.rsplit(".", 1)[-1]
            if leaf == "g":
                expected = np.ones(p.shape)
            elif leaf.startswith("b"):
                expected = np.zeros(p.shape)
            else:
                std = 0.02
                if leaf in ("wo", "w2"):
                    std *= 1.0 / math.sqrt(2.0 * cfg.n_layers)
                draws = np.array([rng.normal() for _ in range(p.size)])
                expected = (draws * std).reshape(p.shape)
            assert np.array_equal(p, expected), name


def test_params_are_views_of_one_flat_vector():
    m = init_model(TINY)
    m.flat[:] = np.arange(m.flat.size)
    pos = 0
    for name, shape in param_shapes(TINY).items():
        assert m.params[name].shape == shape
        assert m.params[name].reshape(-1)[0] == pos
        pos += m.params[name].size
    assert pos == m.flat.size


def test_a_copied_model_trains(tmp_path):
    """copy, deepcopy and pickle rebuild params as views of the copy's flat,
    so an Adam step on the copy moves what forward and checkpoints read."""
    m = init_model(TINY)
    assert all(np.shares_memory(p, c.flat) for c in (copy.copy(m), copy.deepcopy(m))
               for p in c.params.values())
    seq = _random_seq(np.random.default_rng(10), TINY)
    batch = Batch.of([seq])
    for c in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        logits = forward(c, batch).logits
        save_checkpoint(c, str(tmp_path / "before.json"))
        Trainer(c, _hyper(), 1).apply_batch([seq])
        save_checkpoint(c, str(tmp_path / "after.json"))
        assert not np.array_equal(forward(c, batch).logits, logits)
        assert (tmp_path / "before.json").read_bytes() != (tmp_path / "after.json").read_bytes()
    assert np.array_equal(m.flat, init_model(TINY).flat)


def test_parameter_total_closed_form():
    cfg = ModelConfig(8, 1, 2, 16, 30, 10, 0)
    m = init_model(cfg)
    d, ff, V, S, L = 8, 16, 30, 10, 1
    expected = (
        V * d + S * d
        + L * (2 * d + 4 * (d * d + d) + 2 * d + (d * ff + ff) + (ff * d + d))
        + 2 * d
        + d * V
    )
    assert m.flat.size == expected


def test_probability_rows_sum_to_one():
    m = init_model(TINY)
    rng = np.random.default_rng(0)
    trace = forward(m, Batch.of([_random_seq(rng, TINY)]))
    np.testing.assert_allclose(trace.probs.sum(axis=1), 1.0, atol=1e-9)


def _batch(tokens, positions):
    """A batch of one built directly, with a loss at each of positions."""
    weights = np.zeros((1, len(tokens)))
    weights[0, positions] = 1.0 / len(positions)
    return Batch(np.array([tokens]), weights=weights)


def test_causality_prefix_invariance():
    m = init_model(TINY)
    toks = [1, 10, 11, 3, 12, 13, 14, 2]
    # the first six tokens end without EOS, a layout only a direct Batch has
    short = forward(m, _batch(toks[:6], [3, 4]))
    longer = forward(m, _batch(toks, [3, 4, 5]))
    np.testing.assert_allclose(short.hf, longer.hf[:6], rtol=0, atol=1e-12)
    np.testing.assert_allclose(short.logits, longer.logits[: short.logits.shape[0]],
                               rtol=0, atol=1e-12)


def test_zeroed_lm_head_gives_uniform():
    m = init_model(TINY)
    m.params["lm_head"][:] = 0.0
    trace = forward(m, Batch.of([_random_seq(np.random.default_rng(1), TINY)]))
    np.testing.assert_allclose(trace.probs, 1.0 / TINY.vocab_size, atol=1e-15)


def test_forward_rejects_bad_tokens():
    m = init_model(TINY)
    with pytest.raises(ValueError, match="out of range"):
        forward(m, Batch.of([_seq([1, 3, 99, 2], 1)]))
    too_long = _random_seq(np.random.default_rng(3), TINY, t_prompt=4, t_resp=6)
    with pytest.raises(ValueError, match="max_seq_len"):
        forward(m, Batch.of([too_long]))


def _zeroed_model(cfg):
    m = init_model(cfg)
    m.flat[:] = 0.0
    return m


def test_g_lm_uniform_two_way_split():
    # logits (0,0), target 0, one loss position -> g_lm = [-1/2, 1/2]
    cfg = ModelConfig(4, 1, 1, 8, 2, 8, 0)
    m = _zeroed_model(cfg)
    _, _, res = _run(m, _batch([1, 1, 0], [1]))
    np.testing.assert_allclose(res.g_lm[0], [-0.5, 0.5], atol=1e-12)
    assert abs(np.linalg.norm(res.g_lm[0]) - math.sqrt(0.5)) < 1e-9


def test_g_lm_hand_computed_three_way():
    # force logits (1,0,0) via lnf bias + lm_head row; target id 1
    cfg = ModelConfig(4, 1, 1, 8, 3, 8, 0)
    m = _zeroed_model(cfg)
    m.params["lnf.b"][0] = 1.0
    m.params["lm_head"][0, :] = [1.0, 0.0, 0.0]
    _, trace, res = _run(m, _batch([0, 2, 1], [1]))
    np.testing.assert_allclose(trace.logits[0], [1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(
        res.g_lm[0], [0.57611688, -0.78805844, 0.21194156], atol=1e-7
    )


def test_g_lm_zero_sum_and_masked_rows():
    m = init_model(TINY)
    seq = _random_seq(np.random.default_rng(2), TINY)
    batch, trace, res = _run(m, [seq])
    positions = seq.loss_positions
    # logits and g_lm exist on the loss rows only, one row per position
    assert list(batch.loss_rows) == list(positions)
    assert res.g_lm.shape == (len(positions), TINY.vocab_size)
    for row in res.g_lm:
        assert abs(row.sum()) < 1e-9


def test_empty_response_rejected():
    m = init_model(TINY)
    # BOS, prompt, SEP, EOS: the sequence itself refuses a response of no
    # tokens, so no batch reaches the model without one
    with pytest.raises(ValueError, match="^empty response: empty$"):
        _seq([1, 5, 3, 2], 2, "empty")
    with pytest.raises(ValueError, match="^empty response: bos$"):
        _seq([1, 5, 6, 2], 0, "bos")
    _run(m, [_seq([1, 5, 3, 6, 2], 2, "shortest")])  # one response token is enough


def test_embedding_gradients_match_finite_differences():
    m = init_model(TINY)
    batch, _, res = _run(m, [_random_seq(np.random.default_rng(4), TINY)], False)
    fd = np.zeros_like(res.g_emb)
    for t in range(fd.shape[1]):
        for j in range(fd.shape[2]):
            fd[0, t, j] = _pos_fd(m, batch, 0, t, j)
    np.testing.assert_allclose(res.g_emb, fd, rtol=1e-4, atol=1e-8)


def _assert_param_grads_match_fd(m, batch, param_grads):
    eps = 1e-5
    analytic = param_views(m.cfg, param_grads)
    for name in m.params:
        flat = m.params[name].reshape(-1)
        fd = np.zeros(flat.size)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            lp = _mean_loss(m, batch)
            flat[idx] = orig - eps
            lm_ = _mean_loss(m, batch)
            flat[idx] = orig
            fd[idx] = (lp - lm_) / (2 * eps)
        np.testing.assert_allclose(analytic[name].reshape(-1), fd, rtol=1e-4, atol=1e-8,
                                   err_msg=f"parameter {name}")


def test_every_parameter_gradient_matches_finite_differences():
    m = init_model(TINY)
    seq = _random_seq(np.random.default_rng(5), TINY, t_prompt=4, t_resp=5)
    batch, _, res = _run(m, [seq])
    _assert_param_grads_match_fd(m, batch, res.param_grads)


def test_padded_batch_gradients_match_finite_differences():
    # three lengths (12, 6, 9): two of the sequences carry padding
    rng = np.random.default_rng(15)
    seqs = [_random_seq(rng, TINY, 4, 5, "a"), _random_seq(rng, TINY, 1, 2, "b"),
            _random_seq(rng, TINY, 3, 3, "c")]
    m = init_model(TINY)
    batch, _, res = _run(m, seqs)
    assert batch.tokens.shape == (3, 12)
    _assert_param_grads_match_fd(m, batch, res.param_grads)
    for b, t, j in [(0, 11, 3), (1, 2, 0), (1, 5, 7), (2, 8, 15), (2, 0, 1)]:
        assert res.g_emb[b, t, j] == pytest.approx(_pos_fd(m, batch, b, t, j),
                                                   rel=1e-4, abs=1e-8)
    # padded positions get exactly zero gradient
    assert not res.g_emb[1, 6:].any() and not res.g_emb[2, 9:].any()


@st.composite
def _mixed_batch(draw):
    """2-5 sequences of mixed lengths (4 to 40 tokens) under one model."""
    seqs = []
    for i in range(draw(st.integers(2, 5))):
        t_prompt = draw(st.integers(1, 18))
        t_resp = draw(st.integers(1, 36 - t_prompt))
        words = draw(st.lists(st.integers(5, WIDE.vocab_size - 1),
                              min_size=t_prompt + t_resp, max_size=t_prompt + t_resp))
        toks = [1] + words[:t_prompt] + [3] + words[t_prompt:] + [2]
        seqs.append(_seq(toks, 1 + t_prompt, f"s{i}"))
    return seqs


@settings(max_examples=30, deadline=None)
@given(_mixed_batch())
def test_padded_batch_is_bit_identical_to_batches_of_one(seqs):
    m = init_model(WIDE)
    batch, _, res = _run(m, seqs)
    starts = batch.row_starts
    ordered_mean = np.zeros_like(m.flat)
    inv = 1.0 / len(seqs)
    for b, seq in enumerate(seqs):
        _, _, one = _run(m, [seq])
        assert res.losses[b] == one.losses[0]
        assert np.array_equal(res.g_emb[b, : len(seq)], one.g_emb[0])
        assert not res.g_emb[b, len(seq):].any()
        assert np.array_equal(res.g_lm[starts[b] : starts[b + 1]], one.g_lm)
        ordered_mean += inv * one.param_grads
    # relative to the whole gradient: some tensors (the key bias) have an
    # exactly-zero true gradient and hold rounding noise only
    worst = np.abs(res.param_grads - ordered_mean).max()
    assert worst <= 1e-12 * np.abs(ordered_mean).max()


def test_a_reused_gradient_buffer_gives_the_bits_of_a_fresh_one():
    """The second batch is shorter and uses other tokens, so every embedding
    and position row the first one left in the buffer must be cleared."""
    m = init_model(WIDE)
    rng = np.random.default_rng(5)
    long = [_random_seq(rng, WIDE, 10, 20, f"l{i}") for i in range(3)]
    short = [_random_seq(rng, WIDE, 2, i + 1, f"s{i}") for i in range(4)]
    buf = np.full_like(m.flat, np.nan)
    out = (buf, param_views(WIDE, buf))
    for seqs in (long, short):
        batch, _, fresh = _run(m, seqs)
        res = loss_and_grads(m, batch, forward(m, batch), out=out)
        assert res.param_grads is buf
        assert np.array_equal(buf, fresh.param_grads)


def _score_chunk(mixed: bool) -> list[TokenSequence]:
    """SCORE_BATCH sequences: of 13 lengths from 5 to 36 tokens, as frozen
    extraction and the feature passes chunk them, or all of 17 tokens, as
    decoding chunks them."""
    seqs = []
    for i in range(SCORE_BATCH):
        t_prompt = 1 + (7 * i) % 18 if mixed else 8
        t_resp = 1 + (11 * i) % (36 - t_prompt) if mixed else 6
        seqs.append(_random_seq(np.random.default_rng(200 + i), WIDE, t_prompt,
                                t_resp, f"s{i}"))
    assert len({len(s) for s in seqs}) == (13 if mixed else 1)
    return seqs


def test_full_score_batch_is_bit_identical_to_batches_of_one():
    """Frozen extraction runs SCORE_BATCH sequences at once; the case above
    draws only 2 to 5."""
    seqs = _score_chunk(mixed=True)
    m = init_model(WIDE)
    measured = _frozen(m, seqs)
    batch, trace, batched = _run(m, seqs, want_param_grads=False)
    for b, (rows, seq) in enumerate(zip(measured, seqs)):
        _, one_trace, one = _run(m, [seq], want_param_grads=False)
        assert batched.losses[b] == one.losses[0]
        assert np.array_equal(rows.g_emb, one.g_emb[0])
        assert np.array_equal(rows.g_lm, one.g_lm)
        # the pilot's argmax hits read the loss-row logits
        lo, hi = batch.row_starts[b], batch.row_starts[b + 1]
        assert np.array_equal(trace.logits[lo:hi], one_trace.logits)


@pytest.mark.parametrize("mixed", [False, True], ids=["equal", "mixed"])
def test_last_only_rows_are_bit_identical_to_batches_of_one(mixed):
    """greedy_decode's logits and representation_features' hidden rows come
    from last_only chunks; neither may depend on the chunk mates."""
    seqs = _score_chunk(mixed)
    m = init_model(WIDE)
    chunk = forward(m, Batch.of(seqs), last_only=True)
    for b, seq in enumerate(seqs):
        one = forward(m, Batch.of([seq]), last_only=True)
        assert np.array_equal(chunk.logits[b], one.logits[0])
        assert np.array_equal(chunk.hf[chunk.rows[b]], one.hf[one.rows[0]])


def test_perplexity_uniform_equals_vocab_size():
    m = init_model(TINY)
    m.params["lm_head"][:] = 0.0
    seq = _random_seq(np.random.default_rng(6), TINY)
    assert sequence_perplexities(m, [seq])[0] == pytest.approx(TINY.vocab_size, rel=1e-12)


def test_perplexity_at_least_one():
    m = init_model(TINY)
    seqs = [_random_seq(np.random.default_rng(s), TINY) for s in range(5)]
    assert all(ppl >= 1.0 for ppl in sequence_perplexities(m, seqs))


def test_checkpoint_round_trip_bit_exact(tmp_path):
    m = init_model(TINY)
    _train(m, [_random_seq(np.random.default_rng(8), TINY) for _ in range(6)],
           _hyper(3, 1))
    path = str(tmp_path / "ck.json")
    save_checkpoint(m, path)
    m2 = load_checkpoint(path)
    assert m2.cfg == m.cfg
    assert np.array_equal(m.flat, m2.flat)


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError, match="not a model checkpoint"):
        load_checkpoint(str(p))


def test_fingerprint_covers_config_and_seed():
    m = init_model(TINY)
    a = model_fingerprint(m)
    assert len(a) == 16 and int(a, 16) >= 0
    assert a == model_fingerprint(init_model(TINY))
    # the config: another seed, even over the same parameters
    other = init_model(replace(TINY, init_seed=8))
    assert model_fingerprint(other) != a
    other.flat[:] = m.flat
    assert model_fingerprint(other) != a
    # the parameters: one ulp of one of them, and one training step
    flat = m.flat.copy()
    m.flat[17] = np.nextafter(m.flat[17], np.inf)
    assert model_fingerprint(m) != a
    m.flat[:] = flat
    assert model_fingerprint(m) == a
    hyper = _hyper(2, 1)
    _train(m, [_random_seq(np.random.default_rng(8), TINY, instance_id=f"s{i}")
               for i in range(2)], hyper)
    assert model_fingerprint(m) != a


def test_train_zero_epochs_is_identity():
    m = init_model(TINY)
    before = m.flat.copy()
    _train(m, [_random_seq(np.random.default_rng(9), TINY)], _hyper(), epochs=0)
    assert np.array_equal(before, m.flat)


def test_train_deterministic():
    def run():
        m = init_model(TINY)
        seqs = [_random_seq(np.random.default_rng(40 + i), TINY) for i in range(10)]
        return _train(m, seqs, _hyper(4, 5), epochs=2)

    assert np.array_equal(run().flat, run().flat)


def test_train_loss_decreases_on_learnable_corpus():
    ds = synth_corpus(SynthSpec(50, 0, 0, seed=11))
    tok = build_vocab(ds, max_vocab=256)
    seqs = [encode_instance(tok, i, 32) for i in ds]
    cfg = ModelConfig(32, 2, 4, 64, tok.vocab_size, 32, init_seed=1)
    m = init_model(cfg)
    hyper = _hyper(8, 2)
    trainer = Trainer(m, hyper, total_update_steps(len(seqs), hyper.batch_size, 3))
    trainer.run(seqs)
    assert trainer.epoch_losses[2] < trainer.epoch_losses[0]


def test_run_takes_exactly_its_step_budget(monkeypatch):
    seqs = [_random_seq(np.random.default_rng(100 + i), TINY, instance_id=f"r{i}")
            for i in range(7)]
    hyper = _hyper(3, 4)  # 3 updates per epoch
    calls, updated = [], []
    real = Trainer.apply_batch

    def counting(self, batch, on_step=None):
        calls.append(len(batch))
        loss = real(self, batch, on_step)
        updated.append(self.model.flat.copy())
        return loss

    monkeypatch.setattr(Trainer, "apply_batch", counting)
    seen, hooked = [], []
    trainer = Trainer(init_model(TINY), hyper, 8)  # two epochs and 2 of 3 updates
    initial = trainer.model.flat.copy()

    def on_step(chunk, batch, res, step):
        hooked.append((step, len(chunk), trainer.model.flat.copy()))

    trainer.run(seqs, on_epoch=seen.append, on_step=on_step)
    assert calls == [3, 3, 1, 3, 3, 1, 3, 3]
    assert len(trainer.epoch_losses) == 2  # the cut third epoch records no loss
    assert seen == [trainer.model, trainer.model]
    assert trainer.adam.t == 8
    # the hook runs once per update, before it: it sees the parameters the
    # previous update left
    assert [(step, n) for step, n, _ in hooked] == list(zip(range(8), calls))
    for (_, _, flat), before in zip(hooked, [initial] + updated):
        assert np.array_equal(flat, before)
    assert not np.array_equal(updated[0], initial)

    calls.clear()
    hooked.clear()
    m = init_model(TINY)
    before = m.flat.copy()
    idle = Trainer(m, hyper, 0)
    idle.run(seqs, on_step=on_step)
    assert calls == [] and hooked == [] and idle.epoch_losses == []
    assert np.array_equal(before, m.flat)
    with pytest.raises(ValueError, match="empty dataset"):
        Trainer(m, hyper, 3).run([])


def test_warmup_schedule_shape():
    # 100 steps, ratio 0.1 -> ramp over 10 steps then flat
    assert warmup_lr(1.0, 1, 100, 0.1) == pytest.approx(0.1)
    assert warmup_lr(1.0, 5, 100, 0.1) == pytest.approx(0.5)
    assert warmup_lr(1.0, 10, 100, 0.1) == pytest.approx(1.0)
    assert warmup_lr(1.0, 50, 100, 0.1) == 1.0
    assert warmup_lr(1.0, 1, 100, 0.0) == 1.0


def _keep(kept: list):
    """A step hook that appends each instance's own raw gradient rows, its id
    and the step that measured it to kept."""
    def hook(chunk, batch, res, step):
        for b, seq in enumerate(chunk):
            rows = slice(batch.row_starts[b], batch.row_starts[b + 1])
            kept.append(SimpleNamespace(instance_id=seq.instance_id, step_index=step,
                                        g_emb=res.g_emb[b, : len(seq)], g_lm=res.g_lm[rows]))
    return hook


def _frozen(model, seqs):
    """Every instance's raw gradient rows against fixed parameters."""
    kept = []
    frozen_gradients(model, seqs, _keep(kept))
    return kept


def _online_epoch(model, seqs, hyper):
    """Every instance's raw gradient rows over one training epoch, each taken
    before its update."""
    kept = []
    Trainer(model, hyper, total_update_steps(len(seqs), hyper.batch_size, 1)).run(
        seqs, on_step=_keep(kept))
    return kept


def test_extract_frozen_order_independent():
    m = init_model(TINY)
    seqs = [_random_seq(np.random.default_rng(60 + i), TINY, instance_id=f"id{i}")
            for i in range(8)]
    measured = _frozen(m, seqs)
    shuffled = _frozen(m, list(reversed(seqs)))
    by_id = {b.instance_id: b for b in shuffled}
    for b in measured:
        assert np.array_equal(b.g_emb, by_id[b.instance_id].g_emb)
        assert np.array_equal(b.g_lm, by_id[b.instance_id].g_lm)
        assert b.step_index == -1


def test_frozen_pass_measures_each_distinct_sequence_once():
    """c has a's tokens under another sep_pos, so it is a sequence of its own;
    a2 and b2 repeat a and b under other ids."""
    rng = np.random.default_rng(80)
    a, b = (_random_seq(rng, TINY, instance_id=i) for i in "ab")
    c = replace(a, instance_id="c", sep_pos=a.sep_pos + 1)
    seqs = [a, b, replace(a, instance_id="a2"), c, replace(b, instance_id="b2")]
    handed = []
    at = frozen_gradients(init_model(TINY), seqs,
                          lambda chunk, batch, res, step: handed.extend(chunk))
    assert handed == [a, b, c]
    assert at == [0, 1, 0, 2, 1]


def test_extract_online_single_batch_matches_frozen():
    seqs = [_random_seq(np.random.default_rng(70 + i), TINY, instance_id=f"id{i}")
            for i in range(6)]
    frozen_model = init_model(TINY)
    frozen = _frozen(frozen_model, seqs)
    hyper = _hyper(len(seqs), 3)
    online = _online_epoch(init_model(TINY), seqs, hyper)
    assert sorted(b.instance_id for b in online) == sorted(b.instance_id for b in frozen)
    fro = {b.instance_id: b for b in frozen}
    for b in online:
        assert np.array_equal(b.g_emb, fro[b.instance_id].g_emb)
        assert np.array_equal(b.g_lm, fro[b.instance_id].g_lm)


def test_extract_online_one_bundle_per_instance():
    seqs = [_random_seq(np.random.default_rng(80 + i), TINY, instance_id=f"id{i}")
            for i in range(7)]
    m = init_model(TINY)
    measured = _online_epoch(m, seqs, _hyper(2))
    assert sorted(b.instance_id for b in measured) == sorted(s.instance_id for s in seqs)
    steps = {b.instance_id: b.step_index for b in measured}
    assert min(steps.values()) == 0
    assert max(steps.values()) == total_update_steps(len(seqs), 2, 1) - 1


def test_nan_loss_aborts_with_step_index():
    m = init_model(TINY)
    m.params["lnf.g"][0] = float("nan")
    seq = _random_seq(np.random.default_rng(90), TINY)
    hyper = _hyper()
    trainer = Trainer(m, hyper, 1)
    with pytest.raises(RuntimeError, match="NaN loss at step 1"):
        trainer.apply_batch([seq])


def test_nonfinite_instance_loss_is_named():
    # every final hidden row is the unit vector e_0, so the logits are
    # lm_head[0]; token 40 gets probability exactly 0, i.e. infinite loss
    m = init_model(TINY)
    m.params["lnf.g"][:] = 0.0
    m.params["lnf.b"][:] = 0.0
    m.params["lnf.b"][0] = 1.0
    m.params["lm_head"][0, 40] = -1e4
    seqs = [_seq([1, 7, 3, 8 + i, 9, 2], 2, f"ok{i}") for i in range(3)]
    seqs.insert(2, _seq([1, 7, 3, 8, 40, 2], 2, "bad"))
    before = m.flat.copy()
    with pytest.raises(RuntimeError,
                       match=r"^NaN loss at step 1: instance bad has loss inf$"):
        Trainer(m, _hyper(), 1).apply_batch(seqs)
    assert np.array_equal(before, m.flat)  # no update was applied
    with pytest.raises(RuntimeError, match="instance bad has loss inf"):
        _frozen(m, seqs)


def test_last_only_trace_keeps_no_caches_and_refuses_backward():
    m = init_model(TINY)
    batch = Batch.of([_random_seq(np.random.default_rng(95), TINY)])
    trace = forward(m, batch, last_only=True)
    assert trace.layers == [] and trace.losses is None
    with pytest.raises(ValueError, match="last_only"):
        loss_and_grads(m, batch, trace)
    full = forward(m, batch)
    assert np.array_equal(trace.hf, full.hf)  # the forward values are unchanged


def test_loss_positions_follow_response_roles():
    seq = _seq([1, 5, 3, 6, 7, 2], 2)  # BOS, prompt, SEP, two response tokens, EOS
    assert list(seq.loss_positions) == [2, 3]


def test_param_shapes_orders_embedding_first():
    names = list(param_shapes(TINY))
    assert names[0] == "emb" and names[1] == "pos"
    assert names[-1] == "lm_head"
