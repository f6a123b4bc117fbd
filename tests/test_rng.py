"""Tests for the deterministic PRNG layer.

The reference implementation below is transcribed independently from the
published splitmix64 recurrence so the package code is checked against
something other than itself.
"""

import math

from gradsel.rng import (
    MASK64,
    ROLE_INIT,
    ROLE_SHUFFLE,
    SplitMix64,
    substream,
)


def _reference_stream(seed: int, n: int) -> list[int]:
    out = []
    state = seed & MASK64
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def test_matches_published_seed0_vector():
    rng = SplitMix64(0)
    got = [rng.next_u64() for _ in range(5)]
    assert got == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
        0x1B39896A51A8749B,
    ]


def test_matches_reference_transcription():
    for seed in (0, 1, 42, 2**63, MASK64):
        rng = SplitMix64(seed)
        got = [rng.next_u64() for _ in range(1000)]
        assert got == _reference_stream(seed, 1000)


def test_frozen_seed42_values():
    rng = SplitMix64(42)
    assert rng.next_u64() == 0xBDD732262FEB6E95
    assert rng.next_u64() == 0x28EFE333B266F103
    assert rng.next_u64() == 0x47526757130F9F52


def test_uniform_conversion_and_range():
    rng = SplitMix64(42)
    got = [rng.random() for _ in range(3)]
    assert got == [
        0.7415648787718233,
        0.1599103928769201,
        0.27860113025513866,
    ]
    rng = SplitMix64(7)
    for _ in range(10000):
        u = rng.random()
        assert 0.0 <= u < 1.0


def test_uniform_is_53_bit_quotient():
    for seed in (3, 99):
        a, b = SplitMix64(seed), SplitMix64(seed)
        for _ in range(100):
            assert a.random() == (b.next_u64() >> 11) / float(1 << 53)


def test_randint_bounds_and_determinism():
    rng = SplitMix64(5)
    draws = [rng.randint(10) for _ in range(1000)]
    assert all(0 <= d < 10 for d in draws)
    assert set(draws) == set(range(10))
    replay = SplitMix64(5)
    assert draws == [replay.randint(10) for _ in range(1000)]


def test_normal_moments():
    rng = SplitMix64(11)
    xs = [rng.normal() for _ in range(20000)]
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
    assert abs(mean) < 0.03
    assert abs(var - 1.0) < 0.05


def test_vector_normals_match_scalar_stream():
    chunk = SplitMix64.NORMALS_CHUNK
    for seed in (0, 11, (1 << 64) - 1):
        scalar, vector = SplitMix64(seed), SplitMix64(seed)
        for n in (0, 1, 7, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
            want = [scalar.normal() for _ in range(n)]
            assert vector.normals(n).tolist() == want
            assert vector.state == scalar.state


def test_gumbel_location():
    # standard Gumbel has mean equal to the Euler-Mascheroni constant
    rng = SplitMix64(13)
    xs = [rng.gumbel() for _ in range(20000)]
    mean = sum(xs) / len(xs)
    assert abs(mean - 0.5772156649) < 0.04
    assert all(math.isfinite(x) for x in xs)


def test_shuffle_is_permutation_and_seeded():
    items = list(range(50))
    a = list(items)
    SplitMix64(21).shuffle(a)
    assert sorted(a) == items
    assert a != items
    b = list(items)
    SplitMix64(21).shuffle(b)
    assert a == b


def test_sample_without_replacement():
    rng = SplitMix64(31)
    picked = rng.sample_without_replacement(100, 10)
    assert len(picked) == 10
    assert len(set(picked)) == 10
    assert all(0 <= p < 100 for p in picked)
    assert picked == SplitMix64(31).sample_without_replacement(100, 10)
    assert sorted(SplitMix64(8).sample_without_replacement(5, 5)) == list(range(5))


def test_a_full_sample_starts_with_every_shorter_sample():
    # random selection ranks by the full pass and keeps its first k entries,
    # which must be the k-sample of the same stream
    for n in (1, 2, 5, 17, 64):
        for seed in (0, 7, 2**63 + 5):
            full = SplitMix64(seed).sample_without_replacement(n, n)
            assert sorted(full) == list(range(n))
            for k in range(n + 1):
                assert SplitMix64(seed).sample_without_replacement(n, k) == full[:k]


def test_substreams_diverge_and_repeat():
    a = substream(42, ROLE_INIT)
    b = substream(42, ROLE_SHUFFLE)
    xs = [a.next_u64() for _ in range(4)]
    ys = [b.next_u64() for _ in range(4)]
    assert xs != ys
    again = substream(42, ROLE_INIT)
    assert [again.next_u64() for _ in range(4)] == xs
