"""Text-generation metrics, greedy decoding, and the gradient-decile pilot.

Metric implementations are exact-match and token-based; scores are pure
functions of the token lists so results are reproducible across platforms.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import Tokenizer, TokenSequence
from .gradstats import GradientRecord
from .tinylm.model import Batch, Model, _equal_length_chunks, batches, distinct, forward

METEOR_ALPHA = 0.9
METEOR_GAMMA = 0.5
METEOR_BETA = 3.0
BLEU_MAX_ORDER = 4
METEOR_NODE_CAP = 200_000


def greedy_decode(model: Model, prompts: list[list[int]],
                  max_new: list[int]) -> list[list[int]]:
    """Argmax continuation of each prompt; each stops at EOS or its budget.

    Prompts decode in _equal_length_chunks, shortest first, so every step
    is one batched forward over the unpadded chunk members still decoding,
    each row bit-identical to a batch of one, and memory does not grow with
    the number of prompts.
    """
    outs: list[list[int]] = [[] for _ in prompts]
    lengths = [len(p) for p in prompts]
    order = sorted(range(len(prompts)), key=lengths.__getitem__)
    for members in _equal_length_chunks(order, lengths):
        ids = np.array([prompts[i] for i in members], dtype=np.int64)
        live = [r for r, i in enumerate(members) if max_new[i] > 0]
        while live and ids.shape[1] < model.cfg.max_seq_len:
            nxt = np.full(len(members), Tokenizer.eos)
            # no name holds the trace, so it is freed before the next step's
            # forward; argmax takes the lowest id on ties
            nxt[live] = forward(model, Batch(ids[live]), last_only=True).logits.argmax(axis=1)
            ids = np.concatenate([ids, nxt[:, None]], axis=1)
            for r in live:
                if nxt[r] != Tokenizer.eos:
                    outs[members[r]].append(int(nxt[r]))
            live = [r for r in live if nxt[r] != Tokenizer.eos
                    and len(outs[members[r]]) < max_new[members[r]]]
    return outs


def _ngram_counts(tokens: list, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _clipped_matches(cand: list, ref: list, n: int) -> tuple[int, int]:
    cc = _ngram_counts(cand, n)
    rc = _ngram_counts(ref, n)
    matches = sum(min(c, rc[g]) for g, c in cc.items())
    return matches, max(len(cand) - n + 1, 0)


def bleu(candidates: list[list], references: list[list]) -> float:
    """Corpus BLEU, unsmoothed: 0.0 when some n-gram order has no match."""
    if not candidates:
        raise ValueError("no candidates to score")
    if len(candidates) != len(references):
        raise ValueError("candidate/reference count mismatch")
    if any(not r for r in references):
        raise ValueError("empty reference")
    match_sum = [0] * BLEU_MAX_ORDER
    total_sum = [0] * BLEU_MAX_ORDER
    for cand, ref in zip(candidates, references):
        for n in range(1, BLEU_MAX_ORDER + 1):
            m, tot = _clipped_matches(cand, ref, n)
            match_sum[n - 1] += m
            total_sum[n - 1] += tot
    c = sum(len(x) for x in candidates)
    r = sum(len(x) for x in references)
    if any(m == 0 for m in match_sum):
        return 0.0
    logs = sum(math.log(m / t) for m, t in zip(match_sum, total_sum))
    brevity_penalty = 1.0 if c > r else math.exp(1.0 - r / c)  # c > 0: all orders match
    return brevity_penalty * math.exp(logs / BLEU_MAX_ORDER)


def _lcs_len(a: list, b: list) -> int:
    # classic O(nm) table, rolling rows
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l(candidate: list, reference: list) -> float:
    """LCS F-measure with equal precision/recall weighting."""
    if not reference:
        raise ValueError("empty reference")
    if not candidate:
        return 0.0
    lcs = _lcs_len(candidate, reference)
    if lcs == 0:
        return 0.0
    p = lcs / len(candidate)
    r = lcs / len(reference)
    return 2.0 * p * r / (p + r)


def _min_chunks(candidate: list, reference: list, quota: Counter) -> int:
    """Fewest contiguous aligned runs over alignments achieving all matches.

    Exhaustive branch-and-bound; falls back to a greedy left-to-right
    alignment past METEOR_NODE_CAP search nodes (never hit at sane lengths).
    """
    m = sum(quota.values())
    ref_positions: dict = {}
    for j, w in enumerate(reference):
        ref_positions.setdefault(w, []).append(j)
    remaining_after: list[Counter] = [Counter() for _ in range(len(candidate) + 1)]
    for i in range(len(candidate) - 1, -1, -1):
        remaining_after[i] = remaining_after[i + 1].copy()
        remaining_after[i][candidate[i]] += 1

    best = m + 1
    nodes = 0

    def dfs(i: int, need: Counter, used: set, last_c: int, last_r: int, chunks: int):
        nonlocal best, nodes
        nodes += 1
        if nodes > METEOR_NODE_CAP:
            return
        if chunks >= best:
            return
        left = sum(need.values())
        if left == 0:
            best = min(best, chunks)
            return
        if i >= len(candidate):
            return
        # feasibility: every still-needed token must occur often enough ahead
        for w, k in need.items():
            if k > remaining_after[i][w]:
                return
        w = candidate[i]
        if need.get(w, 0) > 0:
            for j in ref_positions.get(w, ()):
                if j in used:
                    continue
                extend = (i == last_c + 1 and j == last_r + 1)
                need[w] -= 1
                used.add(j)
                dfs(i + 1, need, used, i, j, chunks if extend else chunks + 1)
                used.discard(j)
                need[w] += 1
        # skipping is allowed when this occurrence is not forced
        if need.get(w, 0) < remaining_after[i][w]:
            dfs(i + 1, need, used, last_c, last_r, chunks)

    dfs(0, quota.copy(), set(), -2, -2, 0)
    if best <= m:
        return best
    # greedy fallback: prefer continuing the current run
    need = quota.copy()
    used: set = set()
    chunks = 0
    last_c = last_r = -2
    for i, w in enumerate(candidate):
        if need.get(w, 0) <= 0:
            continue
        cont = last_r + 1
        pick = None
        if i == last_c + 1 and cont < len(reference) and reference[cont] == w and cont not in used:
            pick = cont
        else:
            for j in ref_positions.get(w, ()):
                if j not in used:
                    pick = j
                    break
        if pick is None:
            continue
        if not (i == last_c + 1 and pick == last_r + 1):
            chunks += 1
        used.add(pick)
        need[w] -= 1
        last_c, last_r = i, pick
    return chunks


def meteor_lite(candidate: list, reference: list) -> float:
    """Exact-match METEOR: harmonic mean skewed to recall, chunk penalty."""
    if not reference:
        raise ValueError("empty reference")
    if not candidate:
        return 0.0
    cc = Counter(candidate)
    rc = Counter(reference)
    quota = Counter({w: min(c, rc[w]) for w, c in cc.items() if rc[w] > 0})
    quota = +quota
    m = sum(quota.values())
    if m == 0:
        return 0.0
    p = m / len(candidate)
    r = m / len(reference)
    f_mean = p * r / (METEOR_ALPHA * p + (1.0 - METEOR_ALPHA) * r)
    chunks = _min_chunks(candidate, reference, quota)
    penalty = METEOR_GAMMA * (chunks / m) ** METEOR_BETA
    return f_mean * (1.0 - penalty)


def meteor_report(candidates: list[list], references: list[list]) -> float:
    """Mean meteor_lite over the pairs (0.0 for none)."""
    per = [meteor_lite(c, r) for c, r in zip(candidates, references)]
    return float(np.mean(per)) if per else 0.0


def rouge_report(candidates: list[list], references: list[list]) -> float:
    """Mean rouge_l over the pairs (0.0 for none)."""
    per = [rouge_l(c, r) for c, r in zip(candidates, references)]
    return float(np.mean(per)) if per else 0.0


@dataclass(frozen=True)
class DecileReport:
    """Figure-style decile table: decile 1 holds the largest gradients."""

    mean_loss: tuple[float, ...]
    token_acc: tuple[float, ...]
    mean_gradient: tuple[float, ...]
    counts: tuple[int, ...]
    loss_gradient_spearman: float | None  # None when a decile column is constant

    def to_csv(self) -> str:
        lines = ["decile,mean_loss,token_acc,count"]
        for i in range(len(self.counts)):
            lines.append(
                f"{i + 1},{self.mean_loss[i]:.17g},{self.token_acc[i]:.17g},{self.counts[i]}"
            )
        return "\n".join(lines) + "\n"


def decile_slices(n: int) -> list[int]:
    """Ten near-equal slice sizes; the first n%10 slices take the extra item."""
    q, r = divmod(n, 10)
    return [q + 1 if i < r else q for i in range(10)]


def pilot_deciles(records: list[GradientRecord], seqs: list[TokenSequence],
                  base_model: Model) -> DecileReport:
    """Mean loss and teacher-forced token accuracy per gradient decile; each
    distinct sequence is run once (tinylm.model.distinct)."""
    if len(records) < 10:
        raise ValueError("need at least 10 instances for deciles")
    by_id = {s.instance_id: s for s in seqs}
    missing = [r.instance_id for r in records if r.instance_id not in by_id]
    if missing:
        raise ValueError(f"records not covered by dataset: {missing[:3]}")
    ranked = sorted(records, key=lambda r: (-r.g_grads, r.instance_id))
    losses: list[float] = []
    correct: list[int] = []
    targets: list[int] = []
    uniq, at = distinct([by_id[r.instance_id] for r in ranked])
    for _, batch in batches(uniq):
        trace = forward(base_model, batch)
        losses += trace.losses.tolist()
        hits = trace.logits.argmax(axis=1) == batch.targets
        correct += np.add.reduceat(hits, batch.row_starts[:-1]).tolist()
        targets += np.diff(batch.row_starts).tolist()
    losses, correct, targets = ([x[i] for i in at] for x in (losses, correct, targets))
    mean_loss = []
    token_acc = []
    mean_grad = []
    pos = 0
    sizes = decile_slices(len(ranked))
    for size in sizes:
        chunk = slice(pos, pos + size)
        pos += size
        mean_loss.append(float(np.mean(losses[chunk])))
        token_acc.append(sum(correct[chunk]) / sum(targets[chunk]))
        mean_grad.append(float(np.mean([r.g_grads for r in ranked[chunk]])))
    rho = spearman(mean_grad, mean_loss)
    return DecileReport(
        mean_loss=tuple(mean_loss),
        token_acc=tuple(token_acc),
        mean_gradient=tuple(mean_grad),
        counts=tuple(sizes),
        loss_gradient_spearman=None if math.isnan(rho) else rho,
    )


def _average_ranks(x) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def spearman(x, y) -> float:
    """Spearman rank correlation: Pearson over average ranks (nan if constant)."""
    rx = _average_ranks(x) - (len(x) + 1) / 2.0
    ry = _average_ranks(y) - (len(y) + 1) / 2.0
    denom = math.sqrt(float(rx @ rx) * float(ry @ ry))
    return float(rx @ ry) / denom if denom > 0 else float("nan")
