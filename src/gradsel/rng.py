"""Deterministic pseudo-randomness for every stochastic step in the pipeline.

A single splitmix64 generator backs all randomness: it is trivially portable,
has published test vectors, and is fast enough in pure Python at desk scale.
Each consumer (weight init, shuffling, random selection, Gumbel noise,
synthetic data, splits) derives its own substream by XORing the run seed
with a fixed role constant, so adding a draw in one component never perturbs
another component's stream.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1

# Role constants for substream derivation (ASCII tags as 64-bit values).
ROLE_INIT = 0x696E_6974  # "init"  - model weight initialisation
ROLE_SHUFFLE = 0x7368_7566  # "shuf"  - epoch shuffling
ROLE_SELECT = 0x7365_6C63  # "selc"  - random subset selection
ROLE_GUMBEL = 0x6775_6D62  # "gumb"  - Gumbel noise for resampling
ROLE_SYNTH = 0x7379_6E74  # "synt"  - synthetic corpus generation
ROLE_SPLIT = 0x7370_6C74  # "splt"  - train/test/query splitting


class SplitMix64:
    """splitmix64 stream: state += golden gamma, output = mixed state."""

    GOLDEN = 0x9E3779B97F4A7C15
    NORMALS_CHUNK = 4096

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + self.GOLDEN) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform in [0, 1) using the top 53 bits: (x >> 11) / 2^53."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randint(self, n: int) -> int:
        """Integer in [0, n). Modulo bias is ~n/2^64, irrelevant at desk scale."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        return self.next_u64() % n

    def normal(self) -> float:
        """Standard normal via Box-Muller (two uniforms per draw, no caching)."""
        u1 = max(self.random(), 2.0**-53)
        u2 = self.random()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def normals(self, n: int) -> np.ndarray:
        """n normal() draws at once, bit-identical and leaving the same state.

        The integer stream and the uniforms are vectorised in uint64. log and
        cos stay in `math`, one call per draw: numpy's SIMD log is not
        correctly rounded and differs from math.log in the last bit. sqrt and
        the products are IEEE-exact either way. Draws go NORMALS_CHUNK at a
        time, so the Python floats `math` needs stay few however large n is.
        """
        out = np.empty(n)
        for lo in range(0, n, self.NORMALS_CHUNK):
            m = min(self.NORMALS_CHUNK, n - lo)
            steps = np.arange(1, 2 * m + 1, dtype=np.uint64)
            z = np.uint64(self.state) + steps * np.uint64(self.GOLDEN)
            self.state = (self.state + 2 * m * self.GOLDEN) & MASK64
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            u = ((z ^ (z >> np.uint64(31))) >> np.uint64(11)).astype(np.float64) * 2.0**-53
            log_u1 = np.fromiter(map(math.log, np.maximum(u[0::2], 2.0**-53).tolist()), float, m)
            cos_u2 = np.fromiter(map(math.cos, (2.0 * math.pi * u[1::2]).tolist()), float, m)
            np.multiply(np.sqrt(-2.0 * log_u1), cos_u2, out=out[lo:lo + m])
        return out

    def gumbel(self) -> float:
        """Standard Gumbel draw, -ln(-ln(u)), with u clamped away from 0."""
        u = max(self.random(), 2.0**-53)
        return -math.log(-math.log(u))

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, iterating from the back."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_without_replacement(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n) via a partial Fisher-Yates pass."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} from {n}")
        pool = list(range(n))
        for i in range(k):
            j = i + self.randint(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


def substream(seed: int, role: int) -> SplitMix64:
    """Independent stream for one consumer, keyed by (run seed, role constant)."""
    return SplitMix64((seed ^ role) & MASK64)
