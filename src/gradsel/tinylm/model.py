"""Miniature decoder-only transformer with exact hand-derived backprop.

Everything is float64 numpy. Forward and backward run on a right-padded
(B, T) batch; one sequence is a batch of one. Forward caches every
intermediate the backward pass needs, and the backward pass mirrors the
forward line by line. The payoff is exact per-token gradients w.r.t. the
embedding vectors and the logits of every instance in the batch (the
per-example gradient trick of Goodfellow 2015, arXiv:1510.01799), which
downstream code aggregates into per-instance scores.

Right padding keeps each sequence's results its own: attention is causal,
so padded positions never feed real ones; layer norm works row by row;
padded positions carry no loss weight. An unpadded chunk is bit-identical
to a batch of one, since every reduction runs over each sequence's own
length and x @ w.T, the LM head's included, runs in fixed row blocks; the
passes that train nothing run only such chunks (`batches`). A padded batch
(training, online extraction) sums attention's key axis over the padded
length, so it matches a batch of one to rounding only. The parameter
gradient is one product over all B*T rows of the batch.

Architecture: token + learned positional embeddings, pre-layer-norm blocks
(LN -> causal multi-head attention -> residual; LN -> GELU MLP -> residual),
final layer norm, untied linear LM head. The GELU is GPT-2's tanh form.
"""

from __future__ import annotations

import base64
import functools
import itertools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from ..corpus import Tokenizer, TokenSequence, _from_json, _json_lines, open_atomic, sha256
from ..rng import ROLE_INIT, substream

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


def _equal_length_chunks(order, lengths: list[int]):
    """Runs of at most SCORE_BATCH consecutive indices of order, each run of
    one length (lengths[i]); order is sorted by length."""
    for _, run in itertools.groupby(order, key=lengths.__getitem__):
        run = list(run)
        for lo in range(0, len(run), SCORE_BATCH):
            yield run[lo : lo + SCORE_BATCH]


def batches(seqs: list[TokenSequence]):
    """(sequences, Batch) chunks of seqs in order, each unpadded
    (_equal_length_chunks), so each output is bit-identical to a batch of one."""
    for run in _equal_length_chunks(range(len(seqs)), [len(s) for s in seqs]):
        chunk = [seqs[i] for i in run]
        yield chunk, Batch.of(chunk)


def distinct(seqs: list[TokenSequence]) -> tuple[list[TokenSequence], list[int]]:
    """Each distinct (tokens, sep_pos) of seqs at its first copy, shortest
    first and in the order given within a length, and for each of seqs its
    first copy's position among them. The repeat rule of every pass that
    trains nothing: its batches are unpadded, so a repeat measures the same
    bits."""
    firsts: dict[tuple, TokenSequence] = {}
    for seq in seqs:
        firsts.setdefault((seq.tokens, seq.sep_pos), seq)
    uniq = sorted(firsts.values(), key=len)
    position = {(s.tokens, s.sep_pos): i for i, s in enumerate(uniq)}
    return uniq, [position[s.tokens, s.sep_pos] for s in seqs]


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


# GELU(x) = 0.5 x (1 + tanh(u)), u = sqrt(2/pi) (x + 0.044715 x^3): the tanh
# form of Hendrycks and Gimpel (2016, arXiv:1606.08415) that GPT-2 uses.
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU(x) and tanh1 = 1 + tanh(u), which the backward pass reuses."""
    tanh1 = 1.0 + np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))
    return 0.5 * x * tanh1, tanh1


def _gelu_grad(x: np.ndarray, tanh1: np.ndarray) -> np.ndarray:
    """GELU'(x) = 0.5 (1 + tanh u) + 0.5 x (1 - tanh^2 u) du/dx, given tanh1 =
    1 + tanh(u) from the forward pass; 1 - tanh^2 u = tanh1 (2 - tanh1)."""
    du = _GELU_C * (1.0 + 3.0 * _GELU_A * (x * x))
    return 0.5 * tanh1 + 0.5 * x * tanh1 * (2.0 - tanh1) * du


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _times_wt(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w.T in blocks of 16 rows. OpenBLAS picks its kernel for x @ w.T by
    the number of rows, and its kernels round differently; fixed blocks keep
    each row's bits independent of the batch around it."""
    n, k = x.shape
    pad = -n % 16
    if pad:
        x = np.concatenate([x, np.zeros((pad, k))])
    return np.matmul(x.reshape(-1, 16, k), w.T).reshape(n + pad, len(w))[:n]


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
    tanh1: np.ndarray        # 1 + tanh(u(f1)), u the GELU's inner cubic
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
    backpropagates through it. Either way the LM head runs over those rows
    only, in _times_wt's fixed row blocks, so a row's logits do not depend
    on the rows around it. Every loss any pass reads is made here, so here
    a NaN or infinite one is refused, naming each instance that has one.
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
        scores = np.where(mask, -np.inf, np.matmul(q, k.transpose(0, 1, 3, 2)) * scale)
        ez = np.exp(scores - scores.max(axis=-1, keepdims=True))
        att = ez / ez.sum(axis=-1, keepdims=True)
        ctx = _merge_heads(np.matmul(att, v))
        h_mid = h + (ctx @ P[p + "wo"] + P[p + "bo"])
        b, b_xhat, b_inv = _layernorm(h_mid, P[p + "ln2.g"], P[p + "ln2.b"])
        f1 = b @ P[p + "w1"] + P[p + "b1"]
        gact, tanh1 = _gelu(f1)
        h = h_mid + (gact @ P[p + "w2"] + P[p + "b2"])
        if not last_only:
            layers.append(LayerTrace(a, a_xhat, a_inv, q, k, v, att, ctx,
                                     b, b_xhat, b_inv, f1, tanh1, gact))
    hf, hf_xhat, hf_inv = _layernorm(h, P["lnf.g"], P["lnf.b"])
    # one row per sequence with last_only, its last; else the loss rows
    rows = np.arange(B) * T + batch.lengths - 1 if last_only else batch.loss_rows
    logits = _times_wt(hf[rows], P["lm_head"].T)
    probs = _softmax_rows(logits)
    losses = None
    if not last_only:
        # math.log, not numpy's SIMD log, which is not correctly rounded
        p = probs[np.arange(rows.size), batch.targets].tolist()
        logp = np.array([math.log(x) if x != 0.0 else -math.inf for x in p])
        starts = batch.row_starts.tolist()
        losses = np.array([-w * logp[lo:hi].sum()
                           for w, lo, hi in zip(batch.w.tolist(), starts, starts[1:])])
        bad = np.flatnonzero(~np.isfinite(losses))
        if bad.size:
            raise RuntimeError("non-finite loss: " + ", ".join(
                f"instance {batch.ids[b]} has loss {losses[b]}" for b in bad))
    return ForwardTrace(layers, hf, hf_xhat, hf_inv, rows, logits, probs, losses)


@dataclass
class BackwardResult:
    losses: np.ndarray               # (B,) mean response-token cross-entropy
    g_emb: np.ndarray                # (B, T, d): dLoss_b/de[b, t], zero on padding
    g_lm: np.ndarray                 # (R, V): one row per loss row
    param_grads: np.ndarray | None   # gradient of the batch's mean loss


def loss_and_grads(model: Model, batch: Batch, trace: ForwardTrace,
                   want_param_grads: bool = True, *, out=None) -> BackwardResult:
    """Each instance's mean response-token cross-entropy and its exact gradients.

    g_lm is the gradient w.r.t. the pre-softmax logits: p - y, scaled by the
    instance's uniform position weight. param_grads, laid out like
    model.flat, is the gradient of the mean instance loss, taken at batch
    level: each weight's is one x.T @ dy over the B*T rows (padding rows
    carry zero dy), scaled by 1/B, and each bias and layer-norm gain's a row
    sum. Given out, a parameter-sized vector and its param_views,
    param_grads is written there (a training loop allocates it once) in
    place of a fresh vector.
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

    def linear_grads(p: str, s: str, x: np.ndarray, dy: np.ndarray) -> None:
        # y = x @ w<s> + b<s> in layer p
        np.multiply(x.T @ dy, inv, out=G[p + "w" + s])
        np.multiply(dy.sum(axis=0), inv, out=G[p + "b" + s])

    def layernorm_grads(prefix: str, dy: np.ndarray, xhat: np.ndarray) -> None:
        np.multiply((dy * xhat).sum(axis=0), inv, out=G[prefix + ".g"])
        np.multiply(dy.sum(axis=0), inv, out=G[prefix + ".b"])

    dhf = np.zeros((B * T, d))
    dhf[rows] = _times_wt(dlogits, P["lm_head"])
    if want_param_grads:
        np.multiply(trace.hf[rows].T @ dlogits, inv, out=G["lm_head"])
        layernorm_grads("lnf", dhf, trace.hf_xhat)
    dh = _layernorm_backward(dhf, trace.hf_xhat, trace.hf_inv, P["lnf.g"])

    for i in range(cfg.n_layers - 1, -1, -1):
        p = f"l{i}."
        tr = trace.layers[i]
        # MLP block: h_out = h_mid + gelu(LN2(h_mid) @ w1 + b1) @ w2 + b2
        dgact = _times_wt(dh, P[p + "w2"])
        df1 = dgact * _gelu_grad(tr.f1, tr.tanh1)
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
        datt = np.matmul(dctx_h, tr.v.transpose(0, 1, 3, 2))
        dv = np.matmul(tr.att.transpose(0, 1, 3, 2), dctx_h)
        # softmax rows: ds = att * (datt - sum(datt * att))
        dscores = tr.att * (datt - (datt * tr.att).sum(axis=-1, keepdims=True))
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

    g_emb = dh.reshape(B, T, d)  # dLoss/de[t]: e feeds layer 0 directly
    if want_param_grads:  # a scaled copy: g_emb itself is each instance's own
        scaled = dh * inv
        np.add.at(G["emb"], batch.tokens.reshape(-1), scaled)
        G["pos"][:T] = scaled.reshape(B, T, d).sum(axis=0)
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
    """Inverse of save_checkpoint; a malformed file or NaN/inf value is a named ValueError."""
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
        if not np.isfinite(param).all():
            raise ValueError(f"checkpoint parameter {name} has a non-finite value")
    return model
