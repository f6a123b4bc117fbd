"""Adam training loop and the frozen per-instance gradient pass.

The loop is deliberately plain: each update runs one forward/backward over
the padded batch, the instance gradients are averaged into the batch
update, and all shuffling comes from the seeded PRNG so runs are
bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..corpus import TokenSequence
from ..rng import ROLE_SHUFFLE, substream
from .model import (BackwardResult, Batch, Model, batches, forward, loss_and_grads,
                    loss_positions_of, param_views)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainHyper:
    learning_rate: float = 3e-3
    warmup_ratio: float = 0.1
    batch_size: int = 8
    epochs: int = 1
    shuffle_seed: int = 0

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.warmup_ratio <= 1.0:
            raise ValueError("warmup_ratio must lie in [0, 1]")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size >= 1 and epochs >= 0 required")


@dataclass
class GradientBundle:
    """Raw per-instance token gradients captured at one consumption step."""

    instance_id: str
    g_emb: np.ndarray          # (T, d)
    g_lm: np.ndarray           # (n_loss, V), rows follow loss_positions
    loss_positions: list[int]
    weight: float
    loss: float
    step_index: int            # -1 when captured without updates


def _bundles(seqs: list[TokenSequence], batch: Batch, res: BackwardResult,
             step_index: int) -> list[GradientBundle]:
    starts = batch.row_starts
    return [GradientBundle(seq.instance_id, res.g_emb[b, : len(seq)],
                           res.g_lm[starts[b] : starts[b + 1]], loss_positions_of(seq),
                           float(batch.w[b]), float(res.losses[b]), step_index)
            for b, seq in enumerate(seqs)]


def _check_losses(batch: Batch, losses: np.ndarray, where: str) -> None:
    """Abort on a NaN or infinite instance loss, naming the instance."""
    bad = np.flatnonzero(~np.isfinite(losses))
    if bad.size:
        named = ", ".join(f"instance {batch.ids[b]} has loss {losses[b]}" for b in bad)
        raise RuntimeError(f"NaN loss at {where}: {named}")


class AdamState:
    """First/second moment accumulators over the flat parameter vector."""

    def __init__(self, model: Model):
        self.m = np.zeros_like(model.flat)
        self.v = np.zeros_like(model.flat)
        self._step = np.empty_like(model.flat)
        self._denom = np.empty_like(model.flat)
        self.t = 0

    def step(self, model: Model, grads: np.ndarray, lr: float) -> None:
        """p -= lr * (m / b1c) / (sqrt(v / b2c) + eps), in preallocated buffers."""
        self.t += 1
        b1c = 1.0 - ADAM_BETA1**self.t
        b2c = 1.0 - ADAM_BETA2**self.t
        step, denom = self._step, self._denom
        self.m *= ADAM_BETA1
        np.multiply(1.0 - ADAM_BETA1, grads, out=step)
        self.m += step
        self.v *= ADAM_BETA2
        np.multiply(grads, grads, out=step)
        step *= 1.0 - ADAM_BETA2
        self.v += step
        np.divide(self.v, b2c, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        np.divide(self.m, b1c, out=step)
        step *= lr
        step /= denom
        model.flat -= step


def warmup_lr(base_lr: float, step: int, total_steps: int, warmup_ratio: float) -> float:
    """Linear ramp from 0 over the first warmup_ratio of total steps.

    step is 1-indexed (the step about to be applied).
    """
    warmup_steps = int(math.ceil(warmup_ratio * total_steps))
    if warmup_steps <= 0 or step >= warmup_steps:
        return base_lr
    return base_lr * step / warmup_steps


def _epochs(n_instances: int, hyper: TrainHyper):
    """Index batches of epoch after epoch, each epoch freshly shuffled."""
    rng = substream(hyper.shuffle_seed, ROLE_SHUFFLE)
    while True:
        order = list(range(n_instances))
        rng.shuffle(order)
        yield [order[i : i + hyper.batch_size] for i in range(0, n_instances, hyper.batch_size)]


def total_update_steps(n_instances: int, hyper: TrainHyper) -> int:
    per_epoch = (n_instances + hyper.batch_size - 1) // hyper.batch_size
    return per_epoch * hyper.epochs


class Trainer:
    """Single-threaded Adam loop over encoded sequences.

    Mutates the model in place; exposes per-epoch mean losses for reporting.
    """

    def __init__(self, model: Model, hyper: TrainHyper, total_steps: int):
        hyper.validate()
        self.model = model
        self.hyper = hyper
        self.total_steps = total_steps
        self.adam = AdamState(model)
        self.epoch_losses: list[float] = []
        grads = np.zeros_like(model.flat)  # reused by every step
        self._grads = (grads, param_views(model.cfg, grads))

    def apply_batch(self, batch: list[TokenSequence],
                    capture: list[GradientBundle] | None = None) -> float:
        """One Adam update from the mean gradient over the batch.

        When capture is given, each instance's own (unscaled) gradient bundle
        is appended before the update is applied.
        """
        padded = Batch.of(batch)
        res = loss_and_grads(self.model, padded, forward(self.model, padded), out=self._grads)
        _check_losses(padded, res.losses, f"step {self.adam.t + 1}")
        if capture is not None:
            capture.extend(_bundles(batch, padded, res, self.adam.t))
        lr = warmup_lr(self.hyper.learning_rate, self.adam.t + 1,
                       self.total_steps, self.hyper.warmup_ratio)
        self.adam.step(self.model, res.param_grads, lr)
        return sum(res.losses.tolist()) * (1.0 / len(batch))

    def run(self, seqs: list[TokenSequence], on_epoch=None, reduce=None) -> list:
        """Exactly total_steps updates, epoch after epoch, each freshly shuffled.

        Each completed epoch appends its mean batch loss to epoch_losses and
        then calls on_epoch(model). With reduce, each batch's bundles go
        through reduce(bundle, seq) before the next batch runs, so no bundle
        outlives its batch; returns what reduce returned, in consumption order.
        """
        if not seqs:
            raise ValueError("empty dataset")
        reduced: list = []
        left = self.total_steps
        for index_batches in _epochs(len(seqs), self.hyper):
            if left <= 0:
                break
            losses = []
            for idx in index_batches[:left]:
                chunk = [seqs[i] for i in idx]
                bundles = None if reduce is None else []
                losses.append(self.apply_batch(chunk, capture=bundles))
                if bundles is not None:
                    reduced += map(reduce, bundles, chunk)
            left -= len(losses)
            if len(losses) == len(index_batches):
                self.epoch_losses.append(float(np.mean(losses)))
                if on_epoch is not None:
                    on_epoch(self.model)
        return reduced


def frozen_gradients(model: Model, seqs: list[TokenSequence], reduce) -> list:
    """reduce(bundle, seq) of every instance's raw token gradients against
    fixed parameters, in dataset order, with no update.

    Runs in batches of SCORE_BATCH; each bundle is bit-identical to a batch
    of one, so the result does not depend on order or batching. No bundle
    outlives its batch.
    """
    reduced: list = []
    for chunk, batch in batches(seqs):
        res = loss_and_grads(model, batch, forward(model, batch), want_param_grads=False)
        _check_losses(batch, res.losses, "frozen extraction")
        reduced += map(reduce, _bundles(chunk, batch, res, -1), chunk)
    return reduced
