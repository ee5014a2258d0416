import numpy as np
import pytest

from ninecubes import convolve
from ninecubes.convolve import (
    IndexedWeights,
    convolve_full,
    convolve_pair,
    convolve_read,
    from_sparse,
)
from ninecubes.errors import DomainError, ResourceLimitError


def random_part(rng, max_len=40, lo_range=(-50, 50)):
    length = int(rng.integers(1, max_len + 1))
    offset = int(rng.integers(*lo_range))
    values = rng.standard_normal(length)
    return IndexedWeights(offset, values)


def test_from_sparse_accumulates_duplicates():
    part = from_sparse([5, 7, 5], [1.0, 2.0, 3.0])
    assert part.lo == 5 and part.hi == 7
    assert part.coefficient(5) == pytest.approx(4.0)
    assert part.coefficient(6) == 0.0
    assert part.coefficient(7) == pytest.approx(2.0)
    assert part.coefficient(99) == 0.0


def test_from_sparse_guards():
    assert len(from_sparse([], []).values) == 0
    with pytest.raises(DomainError):
        from_sparse([1, 2], [1.0])
    with pytest.raises(ResourceLimitError):
        from_sparse([0, 10**9], [1.0, 1.0])


def test_pair_matches_numpy():
    rng = np.random.default_rng(411)
    for _ in range(50):
        a = random_part(rng)
        b = random_part(rng)
        got = convolve_pair(a, b)
        want = np.convolve(a.values, b.values)
        assert got.offset == a.offset + b.offset
        assert np.allclose(got.values, want, atol=1e-12)


def test_fft_path_matches_direct():
    # dense factors large enough to push past the direct-cost limit
    rng = np.random.default_rng(412)
    n = 7000
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    assert n * n > convolve._DIRECT_COST_LIMIT
    got = convolve._convolve_values(a, b)
    want = np.convolve(a, b)
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= 1e-9 * scale


def test_read_matches_full():
    rng = np.random.default_rng(413)
    for _ in range(20):
        parts = [random_part(rng, max_len=15) for _ in range(int(rng.integers(2, 6)))]
        full = convolve_full(parts)
        for target in [full.lo, full.hi, int(rng.integers(full.lo, full.hi + 1)), full.hi + 3]:
            assert convolve_read(parts, target) == pytest.approx(
                full.coefficient(target), abs=1e-9 * max(1.0, np.abs(full.values).max())
            )


def test_read_brute_force_small():
    rng = np.random.default_rng(414)
    parts = [random_part(rng, max_len=6, lo_range=(-4, 4)) for _ in range(4)]

    def brute(target):
        total = 0.0
        p0, p1, p2, p3 = parts
        for i0, v0 in zip(range(p0.lo, p0.hi + 1), p0.values):
            for i1, v1 in zip(range(p1.lo, p1.hi + 1), p1.values):
                for i2, v2 in zip(range(p2.lo, p2.hi + 1), p2.values):
                    i3 = target - i0 - i1 - i2
                    total += v0 * v1 * v2 * p3.coefficient(i3)
        return total

    for target in range(-20, 21, 5):
        assert convolve_read(parts, target) == pytest.approx(brute(target), abs=1e-10)


def test_empty_factor_annihilates():
    empty = IndexedWeights(0, np.zeros(0))
    unit = IndexedWeights(3, np.array([2.0]))
    assert len(convolve_pair(empty, unit).values) == 0
    assert convolve_read([empty, unit], 3) == 0.0
