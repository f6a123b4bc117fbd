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
from .model import Batch, Model, batches, distinct, forward, loss_and_grads, param_views

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainHyper:
    """What the loop reads; its length is the Trainer's total_steps."""

    learning_rate: float
    warmup_ratio: float
    batch_size: int
    shuffle_seed: int

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.warmup_ratio <= 1.0:
            raise ValueError("warmup_ratio must lie in [0, 1]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


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


def total_update_steps(n_instances: int, batch_size: int, epochs: int) -> int:
    """The updates of epochs full passes over n_instances in batch_size batches."""
    return (n_instances + batch_size - 1) // batch_size * epochs


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

    def apply_batch(self, batch: list[TokenSequence], on_step=None) -> float:
        """One Adam update from the mean gradient over the batch.

        on_step(batch, padded batch, BackwardResult, step) runs after the
        backward pass and before the update; step counts the updates already
        applied. The result's param_grads is a buffer every step reuses.
        """
        padded = Batch.of(batch)
        res = loss_and_grads(self.model, padded, forward(self.model, padded), out=self._grads)
        _check_losses(padded, res.losses, f"step {self.adam.t + 1}")
        if on_step is not None:
            on_step(batch, padded, res, self.adam.t)
        lr = warmup_lr(self.hyper.learning_rate, self.adam.t + 1,
                       self.total_steps, self.hyper.warmup_ratio)
        self.adam.step(self.model, res.param_grads, lr)
        return sum(res.losses.tolist()) * (1.0 / len(batch))

    def run(self, seqs: list[TokenSequence], on_epoch=None, on_step=None) -> None:
        """Exactly total_steps updates, epoch after epoch, each freshly shuffled.

        Each update passes on_step to apply_batch. Each completed epoch appends
        its mean batch loss to epoch_losses and then calls on_epoch(model).
        """
        if not seqs:
            raise ValueError("empty dataset")
        left = self.total_steps
        for index_batches in _epochs(len(seqs), self.hyper):
            if left <= 0:
                break
            losses = []
            for idx in index_batches[:left]:
                losses.append(self.apply_batch([seqs[i] for i in idx], on_step))
            left -= len(losses)
            if len(losses) == len(index_batches):
                self.epoch_losses.append(float(np.mean(losses)))
                if on_epoch is not None:
                    on_epoch(self.model)


def frozen_gradients(model: Model, seqs: list[TokenSequence], on_step) -> list[int]:
    """on_step(chunk, batch, BackwardResult, -1) for every chunk of the
    distinct sequences of seqs, in the order given, against fixed parameters;
    returns, for each of seqs, the position of its first copy among the
    sequences measured.

    Runs in batches of SCORE_BATCH; each instance's gradients are
    bit-identical to a batch of one, as the tinylm tests check, so what
    on_step measures does not depend on order or batching. model.distinct,
    the repeat rule of every pass that trains nothing, picks the sequences.
    """
    uniq, at = distinct(seqs)
    for chunk, batch in batches(uniq):
        res = loss_and_grads(model, batch, forward(model, batch), want_param_grads=False)
        _check_losses(batch, res.losses, "frozen extraction")
        on_step(chunk, batch, res, -1)
    return at
