"""Miniature decoder-only transformer with exact hand-derived backprop.

Everything is float64 numpy. Forward and backward run on a right-padded
(B, T) batch; one sequence is a batch of one. Forward caches every
intermediate the backward pass needs, and the backward pass mirrors the
forward line by line. The payoff is exact per-token gradients w.r.t. the
embedding vectors and the logits of every instance in the batch (the
per-example gradient trick of Goodfellow 2015, arXiv:1510.01799), which
downstream code aggregates into per-instance scores.

Right padding is exact: attention is causal, so padded positions never feed
real ones; layer norm works row by row; padded positions carry no loss
weight. Every output of forward (hidden rows, loss-row logits and last-row
logits) and each instance's loss, embedding gradient and logit gradient are
bit-identical to its batch-of-one result: key-axis sums and dot products
run over each sequence's own length, each sequence's LM head is a GEMM of
its own, and x @ w.T runs in fixed row blocks, so neither the padding nor
the batch mates change a rounding.

Architecture: token + learned positional embeddings, pre-layer-norm blocks
(LN -> causal multi-head attention -> residual; LN -> GELU MLP -> residual),
final layer norm, untied linear LM head.
"""

from __future__ import annotations

import base64
import functools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from ..corpus import Tokenizer, TokenSequence, _from_json, _json_lines, open_atomic, sha256
from ..rng import ROLE_INIT, substream
from .erf import erf

LN_EPS = 1e-5


@dataclass(frozen=True)
class ModelConfig:
    d_model: int
    n_layers: int
    n_heads: int
    d_ff: int
    vocab_size: int
    max_seq_len: int
    init_seed: int

    def validate(self) -> None:
        if min(self.d_model, self.n_layers, self.n_heads, self.d_ff,
               self.vocab_size, self.max_seq_len) < 1:
            raise ValueError("all model dimensions must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )


class Model:
    """Parameters in one contiguous float64 vector; `params` holds named views
    into it in declared order, so an Adam step is a few vector operations."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.flat = np.zeros(_layout(cfg)[-1][2])
        self.params = param_views(cfg, self.flat)

    # copy, deepcopy and pickle keep cfg and flat only, and rebuild the views
    # into the new flat: copied separately, they would share no memory with it
    def __getstate__(self) -> dict:
        return {"cfg": self.cfg, "flat": self.flat}

    def __setstate__(self, state: dict) -> None:
        self.cfg, self.flat = state["cfg"], state["flat"]
        self.params = param_views(self.cfg, self.flat)


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Declared tensor order; init, checkpoints, and the flat layout follow it."""
    d, ff, V, S = cfg.d_model, cfg.d_ff, cfg.vocab_size, cfg.max_seq_len
    layer = (("ln1.g", (d,)), ("ln1.b", (d,)), ("wq", (d, d)), ("bq", (d,)),
             ("wk", (d, d)), ("bk", (d,)), ("wv", (d, d)), ("bv", (d,)),
             ("wo", (d, d)), ("bo", (d,)), ("ln2.g", (d,)), ("ln2.b", (d,)),
             ("w1", (d, ff)), ("b1", (ff,)), ("w2", (ff, d)), ("b2", (d,)))
    shapes: dict[str, tuple[int, ...]] = {"emb": (V, d), "pos": (S, d)}
    for i in range(cfg.n_layers):
        shapes.update((f"l{i}.{name}", shape) for name, shape in layer)
    shapes["lnf.g"] = (d,)
    shapes["lnf.b"] = (d,)
    shapes["lm_head"] = (d, V)
    return shapes


@functools.lru_cache(maxsize=16)
def _layout(cfg: ModelConfig) -> tuple[tuple[str, int, int, tuple[int, ...]], ...]:
    """(name, start, stop, shape) of every tensor in the flat vector."""
    shapes = param_shapes(cfg)
    stops = np.cumsum([math.prod(s) for s in shapes.values()]).tolist()
    return tuple(zip(shapes, [0] + stops[:-1], stops, shapes.values()))


def param_views(cfg: ModelConfig, flat: np.ndarray) -> dict[str, np.ndarray]:
    """Named views of a parameter-sized vector (parameters or gradients)."""
    return {name: flat[lo:hi].reshape(shape) for name, lo, hi, shape in _layout(cfg)}


def init_model(cfg: ModelConfig) -> Model:
    """Scaled normal init, deterministic under cfg.init_seed.

    Weight matrices get std 0.02; residual-output projections (wo, w2) are
    shrunk by 1/sqrt(2 * n_layers) so residual variance stays bounded with
    depth. Biases start at zero, layer-norm gains at one. The weights draw
    from one stream in declared tensor order.
    """
    cfg.validate()
    model = Model(cfg)
    rng = substream(cfg.init_seed, ROLE_INIT)
    residual_scale = 1.0 / math.sqrt(2.0 * cfg.n_layers)
    for name, p in model.params.items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "g":
            p[...] = 1.0
        elif not leaf.startswith("b"):
            std = 0.02 * residual_scale if leaf in ("wo", "w2") else 0.02
            p[...] = (rng.normals(p.size) * std).reshape(p.shape)
    return model


class Batch:
    """Right-padded (B, T) token ids with per-position loss weights.

    weights[b, t] is 1/n_b where the next token is one of sequence b's n_b
    response tokens (the SFT loss mask), and 0 elsewhere and on padding. The
    loss rows are the flat positions b*T + t of nonzero weight in (b, t)
    order; sequence b owns loss rows row_starts[b]:row_starts[b + 1].
    """

    def __init__(self, tokens: np.ndarray, lengths: np.ndarray | None = None,
                 weights: np.ndarray | None = None, ids=None):
        B, T = tokens.shape
        self.tokens = tokens
        self.lengths = np.full(B, T) if lengths is None else lengths
        self.weights = np.zeros((B, T)) if weights is None else weights
        self.ids = tuple(f"#{b}" for b in range(B)) if ids is None else tuple(ids)
        self.w = self.weights.max(axis=1)  # each instance's uniform weight
        self.loss_rows = np.flatnonzero(self.weights)
        self.targets = tokens.reshape(-1)[self.loss_rows + 1]
        counts = np.count_nonzero(self.weights, axis=1)
        self.row_starts = np.concatenate(([0], np.cumsum(counts)))

    @classmethod
    def of(cls, seqs: list[TokenSequence]) -> Batch:
        T = max(len(s) for s in seqs)
        tokens = np.full((len(seqs), T), Tokenizer.pad, dtype=np.int64)
        weights = np.zeros((len(seqs), T))
        for b, seq in enumerate(seqs):
            tokens[b, : len(seq)] = seq.tokens
            weights[b, seq.loss_positions] = 1.0 / len(seq.loss_positions)
        return cls(tokens, np.array([len(s) for s in seqs]), weights,
                   [s.instance_id for s in seqs])


# Sequences per forward pass where nothing is trained: frozen extraction,
# features, perplexities, the pilot and greedy decoding.
SCORE_BATCH = 16


def batches(seqs: list[TokenSequence]):
    """Consecutive (sequences, Batch) chunks of at most SCORE_BATCH sequences."""
    for lo in range(0, len(seqs), SCORE_BATCH):
        chunk = seqs[lo : lo + SCORE_BATCH]
        yield chunk, Batch.of(chunk)


def distinct(seqs: list[TokenSequence]) -> tuple[list[TokenSequence], list[int]]:
    """Each distinct (tokens, sep_pos) of seqs at its first copy, in the order
    given, and for each of seqs its first copy's position among them. The
    repeat rule of every pass that trains nothing: each forward output is
    bit-identical to a batch of one, so a repeat would measure the same bits."""
    firsts: dict[tuple, TokenSequence] = {}
    for seq in seqs:
        firsts.setdefault((seq.tokens, seq.sep_pos), seq)
    position = {key: i for i, key in enumerate(firsts)}
    return list(firsts.values()), [position[s.tokens, s.sep_pos] for s in seqs]


# Row means are written as sum / n: the same bits as ndarray.mean, without
# its Python-level overhead on these small arrays.
def _layernorm(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    n = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / n
    xhat = x - mu
    var = (xhat ** 2).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv
    return xhat * g + b, xhat, inv


def _layernorm_backward(dy, xhat, inv, g):
    # dL/dx for y = g*xhat + b with xhat = (x-mu)/sigma
    n = dy.shape[-1]
    dxhat = dy * g
    m1 = dxhat.sum(axis=-1, keepdims=True) / n
    m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / n
    return inv * (dxhat - m1 - xhat * m2)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _gelu_grad(x: np.ndarray, erf1: np.ndarray) -> np.ndarray:
    """GELU'(x), given erf1 = 1 + erf(x / sqrt 2) from the forward pass."""
    return 0.5 * erf1 + x * _INV_SQRT2PI * np.exp(-0.5 * x * x)


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# Two attention reductions run over the key axis, whose length is the padded
# one. Numpy's pairwise sums regroup at 8 or more terms, and OpenBLAS rounds
# x @ y.T by the number of columns, so the padding would change the bits of a
# shorter sequence; each such sequence's block is recomputed from its own rows.
def _key_sum(x: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sums over the key axis of (B, H, T, T), each sequence over its length."""
    out = x.sum(axis=-1, keepdims=True)
    for b, n in enumerate(lengths.tolist()):
        if n < x.shape[-1]:
            out[b, :, :n] = x[b, :, :n, :n].sum(axis=-1, keepdims=True)
    return out


def _dot_keys(x: np.ndarray, y: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """x @ y^T for (B, H, T, dh) pairs, each sequence over its length."""
    out = np.matmul(x, y.transpose(0, 1, 3, 2))
    for b, n in enumerate(lengths.tolist()):
        if n < x.shape[2]:
            out[b, :, :n, :n] = np.matmul(x[b, :, :n], y[b, :, :n].transpose(0, 2, 1))
    return out


def _times_wt(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w.T in blocks of 16 rows. OpenBLAS picks its kernel for x @ w.T by
    the number of rows, and its kernels round differently; fixed blocks keep
    each row's bits independent of the batch around it."""
    n, k = x.shape
    pad = -n % 16
    if pad:
        x = np.concatenate([x, np.zeros((pad, k))])
    return np.matmul(x.reshape(-1, 16, k), w.T).reshape(n + pad, -1)[:n]


def _split_heads(x: np.ndarray, B: int, T: int, H: int) -> np.ndarray:
    return x.reshape(B, T, H, -1).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    B, H, T, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B * T, H * dh)


@dataclass
class LayerTrace:
    a: np.ndarray            # ln1 output, (B*T, d)
    a_xhat: np.ndarray
    a_inv: np.ndarray
    q: np.ndarray            # (B, H, T, dh)
    k: np.ndarray
    v: np.ndarray
    att: np.ndarray          # (B, H, T, T)
    ctx: np.ndarray          # (B*T, d), heads re-merged
    bmlp: np.ndarray         # ln2 output
    b_xhat: np.ndarray
    b_inv: np.ndarray
    f1: np.ndarray           # pre-GELU
    erf1: np.ndarray         # 1 + erf(f1 / sqrt 2)
    gact: np.ndarray         # post-GELU


@dataclass
class ForwardTrace:
    layers: list[LayerTrace]  # empty with last_only: no backward pass follows
    hf: np.ndarray           # (B*T, d) final layer-norm output
    hf_xhat: np.ndarray
    hf_inv: np.ndarray
    rows: np.ndarray         # (R,) flat positions that have logits
    logits: np.ndarray       # (R, V)
    probs: np.ndarray        # (R, V)
    losses: np.ndarray | None  # (B,) per instance; None with last_only


def forward(model: Model, batch: Batch, last_only: bool = False) -> ForwardTrace:
    """Run the model over a batch, caching activations for backprop.

    Logits and probabilities exist only on the rows that need them: the loss
    rows, or with last_only the final position of every sequence (decoding,
    rds features). last_only keeps no per-layer caches, since nothing
    backpropagates through it. Either way each sequence's LM head is a GEMM
    over its own rows, as in a batch of one: OpenBLAS rounds a row of the
    product by its position among the rows.
    """
    cfg = model.cfg
    tokens = batch.tokens
    B, T = tokens.shape
    if T > cfg.max_seq_len:
        longest = batch.ids[int(np.argmax(batch.lengths))]
        raise ValueError(f"instance {longest}: sequence length {T} exceeds "
                         f"max_seq_len {cfg.max_seq_len}")
    bad = ((tokens < 0) | (tokens >= cfg.vocab_size)).any(axis=1)
    if bad.any():
        raise ValueError(f"instance {batch.ids[int(np.argmax(bad))]}: token id out of range")
    P = model.params
    d, H = cfg.d_model, cfg.n_heads
    scale = 1.0 / math.sqrt(d // H)

    h = (P["emb"][tokens] + P["pos"][:T]).reshape(B * T, d)
    layers: list[LayerTrace] = []
    mask = np.triu(np.ones((T, T), dtype=bool), k=1)
    for i in range(cfg.n_layers):
        p = f"l{i}."
        a, a_xhat, a_inv = _layernorm(h, P[p + "ln1.g"], P[p + "ln1.b"])
        q, k, v = (_split_heads(a @ P[p + "w" + x] + P[p + "b" + x], B, T, H) for x in "qkv")
        scores = np.where(mask, -np.inf, _dot_keys(q, k, batch.lengths) * scale)
        ez = np.exp(scores - scores.max(axis=-1, keepdims=True))
        att = ez / _key_sum(ez, batch.lengths)
        ctx = _merge_heads(np.matmul(att, v))
        h_mid = h + (ctx @ P[p + "wo"] + P[p + "bo"])
        b, b_xhat, b_inv = _layernorm(h_mid, P[p + "ln2.g"], P[p + "ln2.b"])
        f1 = b @ P[p + "w1"] + P[p + "b1"]
        erf1 = 1.0 + erf(f1 * _INV_SQRT2)
        gact = 0.5 * f1 * erf1  # GELU
        h = h_mid + (gact @ P[p + "w2"] + P[p + "b2"])
        if not last_only:
            layers.append(LayerTrace(a, a_xhat, a_inv, q, k, v, att, ctx,
                                     b, b_xhat, b_inv, f1, erf1, gact))
    hf, hf_xhat, hf_inv = _layernorm(h, P["lnf.g"], P["lnf.b"])
    W = P["lm_head"]
    if last_only:  # one row per sequence: its last
        rows, starts = np.arange(B) * T + batch.lengths - 1, list(range(B + 1))
    else:
        rows, starts = batch.loss_rows, batch.row_starts.tolist()
    logits = np.empty((rows.size, W.shape[1]))
    for b, (lo, hi) in enumerate(zip(starts, starts[1:])):
        own = slice(b * T, b * T + batch.lengths[b])
        logits[lo:hi] = (hf[own] @ W)[rows[lo:hi] - b * T]
    probs = _softmax_rows(logits)
    losses = None
    if not last_only:
        # math.log, not numpy's SIMD log, which is not correctly rounded
        p = probs[np.arange(rows.size), batch.targets].tolist()
        logp = np.array([math.log(x) if x != 0.0 else -math.inf for x in p])
        losses = np.array([-w * logp[lo:hi].sum()
                           for w, lo, hi in zip(batch.w.tolist(), starts, starts[1:])])
    return ForwardTrace(layers, hf, hf_xhat, hf_inv, rows, logits, probs, losses)


@dataclass
class BackwardResult:
    losses: np.ndarray               # (B,) mean response-token cross-entropy
    g_emb: np.ndarray                # (B, T, d): dLoss_b/de[b, t], zero on padding
    g_lm: np.ndarray                 # (R, V): one row per loss row
    param_grads: np.ndarray | None   # batch mean of the instance gradients


def loss_and_grads(model: Model, batch: Batch, trace: ForwardTrace,
                   want_param_grads: bool = True, *, out=None) -> BackwardResult:
    """Each instance's mean response-token cross-entropy and its exact gradients.

    g_lm is the gradient w.r.t. the pre-softmax logits: p - y, scaled by the
    instance's uniform position weight. param_grads, laid out like
    model.flat, is the mean of the instance gradients, summed in batch order:
    the same bits as accumulating (1/B) * gradient one instance at a time.
    Given out, a parameter-sized vector and its param_views, param_grads is
    written there (a training loop allocates it once) in place of a fresh
    vector.
    """
    cfg = model.cfg
    if trace.losses is None:
        raise ValueError("loss_and_grads needs a full forward trace, "
                         "not a last_only one (it keeps no layer caches)")
    B, T = batch.tokens.shape
    d, H = cfg.d_model, cfg.n_heads
    scale = 1.0 / math.sqrt(d // H)
    rows = trace.rows
    w = batch.weights.reshape(-1)[rows]
    dlogits = w[:, None] * trace.probs
    dlogits[np.arange(rows.size), batch.targets] -= w

    P = model.params
    grads, G = None, {}
    if want_param_grads:
        grads = np.empty_like(model.flat) if out is None else out[0]
        G = param_views(cfg, grads) if out is None else out[1]
        grads.fill(0.0)
    inv = 1.0 / B

    def put(name: str, per_instance_grads: np.ndarray) -> None:
        # batch mean, summed in batch order like one instance at a time
        per_instance_grads *= inv
        np.add.reduce(per_instance_grads, axis=0, out=G[name])

    def per_instance(x: np.ndarray) -> np.ndarray:  # (B*T, n) -> (B, T, n)
        return x.reshape(B, T, -1)

    def linear_grads(p: str, s: str, x: np.ndarray, dy: np.ndarray) -> None:
        # y = x @ w<s> + b<s> in layer p
        put(p + "w" + s, np.matmul(per_instance(x).transpose(0, 2, 1), per_instance(dy)))
        put(p + "b" + s, per_instance(dy).sum(axis=1))

    def layernorm_grads(prefix: str, dy: np.ndarray, xhat: np.ndarray) -> None:
        put(prefix + ".g", per_instance(dy * xhat).sum(axis=1))
        put(prefix + ".b", per_instance(dy).sum(axis=1))

    Wlm = P["lm_head"]
    dhf = np.zeros((B * T, d))
    starts = batch.row_starts.tolist()
    for b, (lo, hi) in enumerate(zip(starts, starts[1:])):
        own = slice(b * T, b * T + batch.lengths[b])
        dlogits_own = np.zeros((batch.lengths[b], cfg.vocab_size))
        dlogits_own[rows[lo:hi] - b * T] = dlogits[lo:hi]
        dhf[own] = dlogits_own @ Wlm.T
        if want_param_grads:  # put()'s sum of the scaled instances, in batch order
            part = trace.hf[own].T @ dlogits_own
            G["lm_head"] += np.multiply(part, inv, out=part)
    if want_param_grads:
        layernorm_grads("lnf", dhf, trace.hf_xhat)
    dh = _layernorm_backward(dhf, trace.hf_xhat, trace.hf_inv, P["lnf.g"])

    for i in range(cfg.n_layers - 1, -1, -1):
        p = f"l{i}."
        tr = trace.layers[i]
        # MLP block: h_out = h_mid + gelu(LN2(h_mid) @ w1 + b1) @ w2 + b2
        dgact = _times_wt(dh, P[p + "w2"])
        df1 = dgact * _gelu_grad(tr.f1, tr.erf1)
        dbmlp = _times_wt(df1, P[p + "w1"])
        if want_param_grads:
            linear_grads(p, "2", tr.gact, dh)
            linear_grads(p, "1", tr.bmlp, df1)
            layernorm_grads(p + "ln2", dbmlp, tr.b_xhat)
        dh_mid = dh + _layernorm_backward(dbmlp, tr.b_xhat, tr.b_inv, P[p + "ln2.g"])

        # attention block: h_mid = h_in + (ctx @ wo + bo)
        dctx = _times_wt(dh_mid, P[p + "wo"])
        if want_param_grads:
            linear_grads(p, "o", tr.ctx, dh_mid)
        dctx_h = _split_heads(dctx, B, T, H)
        datt = _dot_keys(dctx_h, tr.v, batch.lengths)
        dv = np.matmul(tr.att.transpose(0, 1, 3, 2), dctx_h)
        # softmax rows: ds = att * (datt - sum(datt * att))
        dscores = tr.att * (datt - _key_sum(datt * tr.att, batch.lengths))
        dq = _merge_heads(np.matmul(dscores, tr.k) * scale)
        dk = _merge_heads(np.matmul(dscores.transpose(0, 1, 3, 2), tr.q) * scale)
        dv = _merge_heads(dv)
        da = (_times_wt(dq, P[p + "wq"]) + _times_wt(dk, P[p + "wk"])
              + _times_wt(dv, P[p + "wv"]))
        if want_param_grads:
            for x, g in zip("qkv", (dq, dk, dv)):
                linear_grads(p, x, tr.a, g)
            layernorm_grads(p + "ln1", da, tr.a_xhat)
        dh = dh_mid + _layernorm_backward(da, tr.a_xhat, tr.a_inv, P[p + "ln1.g"])

    g_emb = per_instance(dh)  # dLoss/de[t]: e feeds layer 0 directly
    if want_param_grads:  # per instance, only the rows the batch uses
        used, index = np.unique(batch.tokens, return_inverse=True)
        emb = np.zeros((B, used.size, d))
        np.add.at(emb, (np.repeat(np.arange(B), T), index.reshape(-1)), dh)
        G["emb"][used] += (inv * emb).sum(axis=0)
        G["pos"][:T] += (inv * g_emb).sum(axis=0)
    return BackwardResult(trace.losses, g_emb, dlogits, grads)


def model_fingerprint(model: Model) -> str:
    """64-bit hex digest of the canonical config (init_seed included)
    followed by the little-endian float64 bytes of the parameters.

    A gradient record carries the fingerprint of the model its extraction
    started from: the warmup model, which is the checkpoint written next to
    the records in both modes (online mode trains a copy of it).
    """
    digest = sha256(json.dumps(asdict(model.cfg), sort_keys=True).encode())
    digest.update(model.flat.astype("<f8", copy=False))  # no copy on little-endian hosts
    return digest.hexdigest()[:16]


CHECKPOINT_FORMAT = "tinylm-checkpoint"
CHECKPOINT_VERSION = 2


def save_checkpoint(model: Model, path: str) -> None:
    """JSON container with base64 little-endian float64 arrays, bit-exact."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.cfg),
        "params": {
            name: {
                "shape": list(arr.shape),
                "data": base64.b64encode(
                    np.ascontiguousarray(arr, dtype="<f8").tobytes()
                ).decode("ascii"),
            }
            for name, arr in model.params.items()
        },
    }
    with open_atomic(path) as fh:
        json.dump(payload, fh)


def load_checkpoint(path: str) -> Model:
    """Inverse of save_checkpoint; a malformed file raises a named ValueError."""
    (_, payload), = _json_lines(path, whole=True)
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a model checkpoint: {path}")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')}")
    cfg = _from_json(ModelConfig, payload.get("config"), "checkpoint config")
    cfg.validate()
    params = payload.get("params")
    if not isinstance(params, dict):
        raise ValueError("checkpoint params is not a JSON object")
    model = Model(cfg)
    for name, param in model.params.items():
        entry = params.get(name)
        if not isinstance(entry, dict) or not isinstance(entry.get("data"), str):
            raise ValueError(f"checkpoint missing parameter {name}")
        if entry.get("shape") != list(param.shape):
            raise ValueError(f"checkpoint shape mismatch for {name}")
        raw = base64.b64decode(entry["data"])  # binascii.Error is a ValueError
        if len(raw) != 8 * param.size:
            raise ValueError(f"checkpoint data size mismatch for {name}")
        param[...] = np.frombuffer(raw, dtype="<f8").reshape(param.shape)
    return model
