"""Density-based subset selection over per-instance gradient magnitudes.

The core idea: fit a Gaussian KDE to the scalar gradient magnitudes and keep
the instances whose magnitude sits in the densest region. High-density values
are "typical" for the corpus; both extremes (noise-driven spikes, memorized
near-duplicates) live in the thin tails and get dropped. Several rank- and
normalization-based variants of the same pipeline are provided for ablation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gradstats import GradientRecord

STRATEGIES = (
    "grads",
    "emb_only",
    "lm_only",
    "top_grad",
    "tail_grad",
    "mid_grad",
    "weight",
    "weightr",
)

TIE_BREAK = "f_desc_then_dataset_index"


@dataclass(frozen=True)
class SelectionResult:
    strategy: str
    fraction_percent: float
    selected_ids: tuple[str, ...]      # dataset order
    ordered_ids: tuple[str, ...]       # rank order (best first)
    f_values: dict[str, float]
    bandwidth: float | None
    seed: int | None = None
    stratum_counts: dict[str, int] | None = None


def subset_size(k: int, percent: float) -> int:
    """max(1, round-half-up of k * percent / 100), exact for decimal percents."""
    if k < 1:
        raise ValueError("need at least one instance")
    if not 0 < percent <= 100:
        raise ValueError("percent must lie in (0, 100]")
    frac = Fraction(str(percent)) * k / 100
    return max(1, math.floor(frac + Fraction(1, 2)))


def silverman_bandwidth(values: list[float] | np.ndarray) -> float | None:
    """0.9 * min(sample std, IQR/1.34) * n^(-1/5) with type-7 quartiles
    (Silverman 1986, section 3.4.2); None when every value is the same, since
    there is no spread to scale a kernel by."""
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError(f"bandwidth needs at least two values, got {n}")
    if x.min() == x.max():
        return None
    std = float(np.std(x, ddof=1))
    q1, q3 = np.percentile(x, [25, 75])  # linear interpolation (type 7)
    iqr = float(q3 - q1)
    spread = min(std, iqr / 1.34) if iqr > 0 else std
    return 0.9 * spread * n ** (-0.2)


# Kernel cells (evaluation points x sample points) evaluated at once: 256 KB
# of float64 per buffer, so the KDE's memory does not grow with n * len(xs).
KDE_BLOCK_CELLS = 2**15


def kde_density(values: list[float] | np.ndarray, h: float,
                xs: list[float] | np.ndarray) -> np.ndarray:
    """Gaussian KDE fitted on values, evaluated at the points xs.

    Evaluated in blocks of whole rows, one row per point: each row keeps the
    operands and order of the dense n x len(xs) formula (its sum runs over
    one contiguous row), so the densities are the same bits in bounded memory.
    """
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    x = np.asarray(values, dtype=float)
    pts = np.asarray(xs, dtype=float)
    out = np.empty(pts.size)
    rows = max(1, KDE_BLOCK_CELLS // max(1, x.size))
    z_buf = np.empty((min(rows, pts.size), x.size))
    k_buf = np.empty_like(z_buf)
    for lo in range(0, pts.size, rows):
        hi = min(lo + rows, pts.size)
        z, k = z_buf[: hi - lo], k_buf[: hi - lo]
        np.subtract(pts[lo:hi, None], x[None, :], out=z)
        z /= h
        np.multiply(-0.5, z, out=k)
        k *= z
        np.exp(k, out=k)
        k.sum(axis=1, out=out[lo:hi])
    out /= x.size * h * math.sqrt(2.0 * math.pi)
    return out


def descending_order(x) -> list[int]:
    """Indices from the largest value down; ties keep the lower index first."""
    return np.lexsort((-np.asarray(x, dtype=float),)).tolist()


def selection_from_order(strategy: str, percent: float, ids: list[str], order,
                         scores, seed: int | None = None,
                         bandwidth: float | None = None) -> SelectionResult:
    """Keep the first subset_size(len(ids), percent) indices of order.

    order indexes ids, best first; scores[i] is the value reported for ids[i]
    (no values are reported when scores is None), so a score count other than
    the id count is refused. A bandwidth marks a density ranking, whose every
    kept density must dominate every dropped one.
    """
    if scores is not None and len(scores) != len(ids):
        raise ValueError(f"{len(ids)} ids for {len(scores)} scores")
    size = subset_size(len(ids), percent)
    chosen = order[:size]
    if bandwidth is not None and size < len(order):  # a raise, not an assert: -O keeps it
        if not scores[chosen].min() >= scores[order[size:]].max():  # NaN trips it too
            raise AssertionError("a kept density is below a dropped one")
    return SelectionResult(
        strategy=strategy,
        fraction_percent=percent,
        selected_ids=tuple(ids[i] for i in sorted(chosen)),
        ordered_ids=tuple(ids[i] for i in chosen),
        f_values={} if scores is None else {i: float(f) for i, f in zip(ids, scores)},
        bandwidth=bandwidth,
        seed=seed,
    )


def density_order(values) -> tuple[list[int], np.ndarray | None, float | None]:
    """Rank values by their density under a Silverman-bandwidth KDE, densest
    first, ties broken by dataset position; returns the order, the densities
    and the bandwidth.

    When every value is the same, every instance has the same density: the
    order is the dataset order, with no densities and no bandwidth.
    """
    h = silverman_bandwidth(values)
    if h is None:
        return list(range(len(values))), None, None
    # equal values sum the same kernel values in the same order, so each
    # distinct value's density is evaluated once and scattered to its copies
    uniq, inv = np.unique(values, return_inverse=True)
    f = kde_density(values, h, uniq)[inv]
    return descending_order(f), f, h


def minmax_unit(x: np.ndarray) -> np.ndarray:
    """Min-max map to [0, 1]; a constant vector maps to all zeros."""
    lo, hi = float(x.min()), float(x.max())
    if hi == lo:
        return np.zeros_like(x)
    return (x - lo) / (hi - lo)


def weight_values(records: list[GradientRecord]) -> np.ndarray:
    """Per-instance z(g_emb) + z(g_lm) with min-max z."""
    ge = np.array([r.g_emb for r in records])
    gl = np.array([r.g_lm for r in records])
    return minmax_unit(ge) + minmax_unit(gl)


def descending_ranks(x: np.ndarray) -> np.ndarray:
    """Rank 1 = largest value; ties resolved by earlier index first."""
    ranks = np.empty(x.size, dtype=float)
    ranks[descending_order(x)] = np.arange(1, x.size + 1)
    return ranks


def weightr_values(records: list[GradientRecord]) -> np.ndarray:
    """Per-instance 1/rank(g_emb) + 1/rank(g_lm), descending ranks from 1."""
    ge = np.array([r.g_emb for r in records])
    gl = np.array([r.g_lm for r in records])
    return 1.0 / descending_ranks(ge) + 1.0 / descending_ranks(gl)


def select_strategy(records: list[GradientRecord], strategy: str,
                    percent: float) -> tuple[list[int], np.ndarray | None, float | None]:
    """Rank records by one of STRATEGIES: the order, the scores and the KDE
    bandwidth. The top, tail and mid windows rank g_grads itself, and only mid
    reads percent, as its window is centred on the budget; the density
    variants share density_order."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if not records:
        raise ValueError("no records to select from")
    g = np.array([r.g_grads for r in records])
    window = strategy.split("_")[0]
    if window in ("top", "tail", "mid"):
        if window == "tail":  # ascending, ties keep the lower index first
            order = np.lexsort((g,)).tolist()
        else:  # top from rank 0; mid centered on the median rank, clipped by construction
            lo = 0 if window == "top" else (len(g) - subset_size(len(g), percent)) // 2
            order = descending_order(g)[lo:]
        return order, g, None
    if strategy == "grads":
        values = g
    elif strategy == "emb_only":
        values = np.array([r.g_emb for r in records])
    elif strategy == "lm_only":
        values = np.array([r.g_lm for r in records])
    elif strategy == "weight":
        values = weight_values(records)
    else:
        values = weightr_values(records)
    return density_order(values)
