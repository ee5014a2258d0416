import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ninecubes import convolve
from ninecubes.convolve import (
    IndexedWeights,
    convolve_full,
    convolve_read,
    from_sparse,
)
from ninecubes.errors import DomainError, ResourceLimitError
from ninecubes.expsum import cube_support, weighted_count_direct, weighted_count_fourier
from ninecubes.localdata import CoefficientSystem
from ninecubes.singular import integral_support, singular_integral


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
    for indices, weights in (([1, 2], [1.0]), ([], [1.0])):
        with pytest.raises(DomainError):
            from_sparse(indices, weights)
    with pytest.raises(ResourceLimitError):
        from_sparse([0, 10**9], [1.0, 1.0])


def test_read_matches_full():
    rng = np.random.default_rng(413)
    for _ in range(20):
        parts = [random_part(rng, max_len=15) for _ in range(int(rng.integers(2, 6)))]
        full = IndexedWeights(*numpy_chain(parts))
        for target in [full.lo, full.hi, int(rng.integers(full.lo, full.hi + 1)), full.hi + 3]:
            value, bound = convolve_read(parts, target)
            assert abs(value - full.coefficient(target)) <= bound
            assert value == pytest.approx(
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
        value, bound = convolve_read(parts, target)
        assert abs(value - brute(target)) <= bound
        assert value == pytest.approx(brute(target), abs=1e-10)


def test_empty_factor_annihilates():
    empty = IndexedWeights(0, np.zeros(0))
    unit = IndexedWeights(3, np.array([2.0]))
    assert convolve_read([empty, unit], 3) == (0.0, 0.0)


def numpy_chain(parts):
    values = parts[0].values
    for p in parts[1:]:
        values = np.convolve(values, p.values)
    return sum(p.offset for p in parts), values


def count_rffts(monkeypatch):
    """The length of every rfft taken."""
    calls = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda x, n, *a, **k: calls.append(n) or rfft(x, n, *a, **k))
    return calls


def record_reads(monkeypatch):
    """The length of every single-coefficient read; an irfft fails the test."""
    lengths = []
    read = convolve._coefficient
    monkeypatch.setattr(convolve, "_coefficient", lambda s, nfft, t: lengths.append(nfft) or read(s, nfft, t))

    def refuse(*args, **kwargs):
        raise AssertionError("irfft reached")

    monkeypatch.setattr(np.fft, "irfft", refuse)
    return lengths


def count_sumsets(monkeypatch):
    calls = []
    sumset = convolve._sumset
    monkeypatch.setattr(convolve, "_sumset", lambda a, b: calls.append(1) or sumset(a, b))
    return calls


def test_full_paths_match_numpy_chain():
    rng = np.random.default_rng(415)
    cases = []
    for _ in range(20):
        parts = [random_part(rng, max_len=30) for _ in range(int(rng.integers(1, 6)))]
        for p in parts:
            p.values[rng.random(len(p.values)) < 0.3] = 0.0
        cases.append(parts)
    base = random_part(rng, max_len=25, lo_range=(-60, -20))
    other = random_part(rng, max_len=25)
    # repeats passed as distinct but equal arrays, at different offsets
    cases.append([IndexedWeights(base.offset + 7 * i, base.values.copy()) for i in range(4)] + [other])
    cases.append([IndexedWeights(-5, np.array([0.0, -2.0, 0.0, 3.0]))])
    for parts in cases:
        offset, want = numpy_chain(parts)
        scale = max(1.0, np.abs(want).max())
        staged = convolve_full(parts)
        spectral = convolve._spectral_product(parts, len(want), convolve._fft_length(len(want)))
        assert spectral.values.base is None  # owns the span, not a view of the cyclic product
        for got in (staged, spectral):
            assert got.offset == offset and len(got.values) == len(want)
            assert np.abs(got.values - want).max() <= 1e-12 * scale


def test_full_empty_factor_annihilates_on_both_routes(monkeypatch):
    empty = IndexedWeights(4, np.zeros(0))
    dense = IndexedWeights(-3, np.ones(8000))
    rffts = count_rffts(monkeypatch)
    convolve_full([dense, dense])
    assert len(rffts) == 1
    rffts.clear()
    for parts in ([empty, dense], [dense, empty, dense]):
        assert len(convolve_full(parts).values) == 0
    assert rffts == []


def test_spectral_transforms_once_per_distinct_factor(monkeypatch):
    rng = np.random.default_rng(416)
    a, b = rng.standard_normal(40), rng.standard_normal(40)
    parts = [IndexedWeights(i, a.copy()) for i in range(5)] + [IndexedWeights(-9, b) for _ in range(2)]
    calls = count_rffts(monkeypatch)
    got = convolve._spectral_product(parts, 7 * 39 + 1, convolve._fft_length(7 * 39 + 1))
    assert len(calls) == 2
    offset, want = numpy_chain(parts)
    assert got.offset == offset
    assert np.abs(got.values - want).max() <= 1e-12 * np.abs(want).max()


def test_full_route_on_window_tables(monkeypatch):
    # small analogues of the benchmark's tables: sparse prime-cube supports
    # stay sparse, seven merged stages and a last one written into the
    # table; dense m^(-2/3) supports take one spectral product with one
    # transform per distinct |a| (a = -1 reverses a = 1), each at L over
    # its stride |a|
    coeffs = (1, -1, 1, 1, 1, 1, -1, 2, 3)
    system = CoefficientSystem.make(coeffs, 1)
    calls, sumsets = count_rffts(monkeypatch), count_sumsets(monkeypatch)
    for N in (10**4, 10**5):
        sups = [cube_support(aj, N // 10, N) for aj in system.a]
        parts = [from_sparse(s.indices, s.weights) for s in sups]
        sumsets.clear()
        convolve_full(parts)
        assert (calls, len(sumsets)) == ([], 7)
    parts = [integral_support(a, 10**3, 10**4) for a in coeffs]
    sumsets.clear()
    got = convolve_full(parts)
    assert (len(calls), sumsets) == (3, [])
    length = convolve._fft_length(len(got.values), [6])
    assert calls == [length, length // 2, length // 3]
    offset, want = numpy_chain(parts)
    assert got.offset == offset
    assert np.abs(got.values - want).max() <= 1e-12 * want.max()


def slice_add_chain(parts):
    """The chain with a slice add per nonzero of the shorter side, zeros included."""
    values = parts[0].values
    for p in parts[1:]:
        short, long_ = sorted((values, p.values), key=len)
        values = np.zeros(len(short) + len(long_) - 1)
        for i in np.flatnonzero(short):
            values[i : i + len(long_)] += short[i] * long_
    return values


def test_sparse_chain_matches_numpy_chain(monkeypatch):
    # factors with at least 90% zeros; the longer side of a stage is
    # sparse at first (merged and written stages) and fills in later (a
    # spectral product of the rest); a chain whose every stage stays
    # sparse adds the same products in the same order as plain slice
    # adds; the last ten cases give every factor one length, so the first
    # stage ties on span and takes the accumulator as shorter
    rng = np.random.default_rng(418)
    densities, rffts, all_sparse = [], count_rffts(monkeypatch), 0
    for case in range(40):
        parts = []
        for _ in range(int(rng.integers(2, 7))):
            if case < 30:
                p = random_part(rng, max_len=int(rng.choice([60, 400, 3000])), lo_range=(-500, 500))
            else:
                p = IndexedWeights(int(rng.integers(-500, 500)), rng.standard_normal(400))
            keep = rng.random(len(p.values)) < rng.uniform(0.005, 0.1)
            keep[int(rng.integers(len(keep)))] = True
            p.values[~keep] = 0.0
            parts.append(p)
        offset, want = numpy_chain(parts)
        rffts.clear()
        got = convolve_full(parts)
        assert got.offset == offset and len(got.values) == len(want)
        assert np.abs(got.values - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        if not rffts:
            all_sparse += 1
            assert np.array_equal(got.values, slice_add_chain(parts))
        for k in range(1, len(parts)):
            _, acc = numpy_chain(parts[:k])
            long_ = max(acc, parts[k].values, key=len)
            densities.append(np.count_nonzero(long_) / len(long_))
    assert min(densities) < 0.01 and max(densities) > 0.5
    assert 0 < all_sparse < 40, all_sparse


def test_sparse_prime_cube_table_is_its_sumset(monkeypatch):
    # every nonzero cell is an attained sum a . p^3, with the summed
    # log-weight products of its tuples, and no cell is negative
    coeffs = (1, 1, 1, -1, -1, 1, 1, 2, 3)
    system = CoefficientSystem.make(coeffs, 1)
    sups = [cube_support(aj, 300, 3000) for aj in system.a]
    brute = {}
    for combo in itertools.product(*(list(zip(s.indices.tolist(), s.weights)) for s in sups)):
        n = sum(i for i, _ in combo)
        brute[n] = brute.get(n, 0.0) + math.prod(w for _, w in combo)
    calls = count_rffts(monkeypatch)
    table = convolve_full([from_sparse(s.indices, s.weights) for s in sups])
    assert calls == []
    cells = np.flatnonzero(table.values)
    assert sorted(brute) == (cells + table.offset).tolist()
    assert np.allclose(table.values[cells], [brute[n] for n in sorted(brute)], rtol=1e-13)
    assert (table.values >= 0).all()


def test_stages_follow_observed_counts(monkeypatch):
    # at a limit of 1000, (1,...,1)'s prime-cube chain at N = 1e4 stays
    # direct: four primes a slot make at most 165 distinct sums, 660
    # products at the last stage, where the product of the counts bounds
    # that stage by 4^9
    system = CoefficientSystem.make((1,) * 9, 1)
    sups = [cube_support(aj, 1000, 10**4) for aj in system.a]
    parts = [from_sparse(s.indices, s.weights) for s in sups]
    want = convolve_full(parts)
    monkeypatch.setattr(convolve, "_DIRECT_COST_LIMIT", 1000)
    counts = [len(s.primes) for s in sups]
    assert counts == [4] * 9 and math.prod(counts) > convolve._DIRECT_COST_LIMIT
    rffts, sumsets = count_rffts(monkeypatch), count_sumsets(monkeypatch)
    got = convolve_full(parts)
    assert (rffts, len(sumsets)) == ([], 7)
    assert got.offset == want.offset and np.array_equal(got.values, want.values)
    assert np.count_nonzero(got.values) == 220
    # a dense stage after a direct one hands the accumulator and the rest
    # to one spectral product: one rfft for the accumulator of two
    # distinct sparse factors, one for the dense factor, its copy and its
    # reverse
    rng = np.random.default_rng(419)
    dense = rng.random(300)
    rest = [IndexedWeights(5, dense), IndexedWeights(-7, dense.copy()), IndexedWeights(2, dense[::-1].copy())]
    mixed = [parts[0], IndexedWeights(3, 0.5 * parts[1].values)] + rest
    rffts.clear()
    sumsets.clear()
    got = convolve_full(mixed)
    assert (len(rffts), len(sumsets)) == (2, 1)
    offset, want = numpy_chain(mixed)
    assert got.offset == offset and np.abs(got.values - want).max() <= 1e-12 * want.max()


def bench_signs(rng):
    """Unit coefficients but |a| = 2, 3 in the last slots, two of nine negated."""
    negative = rng.choice(9, size=2, replace=False)
    return tuple(-m if j in negative else m for j, m in enumerate((1,) * 7 + (2, 3)))


@pytest.mark.parametrize("N", [10**4, 10**5])
def test_sparse_tables_run_every_stage_sparse(monkeypatch, N):
    # prime-cube tables of the benchmark's shape: seven merged stages and
    # a written last one, no transform, bit for bit the slice-add chain
    rng = np.random.default_rng(420)
    rffts, sumsets = count_rffts(monkeypatch), count_sumsets(monkeypatch)
    for _ in range(3):
        system = CoefficientSystem.make(bench_signs(rng), 1)
        parts = [from_sparse(s.indices, s.weights) for s in (cube_support(aj, N // 10, N) for aj in system.a)]
        sumsets.clear()
        got = convolve_full(parts)
        assert (rffts, len(sumsets)) == ([], 7)
        assert got.offset == sum(p.offset for p in parts)
        assert np.array_equal(got.values, slice_add_chain(parts))


def test_dense_table_sorts_nothing(monkeypatch):
    # the m^(-2/3) table at M = 100, N = 1000 forms 810,000 pairs on 1,799
    # cells at its first stage: one spectral product, no stage is merged
    sorts = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda x, *a, **k: sorts.append(len(x)) or argsort(x, *a, **k))
    parts = [integral_support(1, 100, 1000) for _ in range(9)]
    got = convolve_full(parts)
    assert sorts == []
    offset, want = numpy_chain(parts)
    assert got.offset == offset and np.abs(got.values - want).max() <= 1e-12 * want.max()


def test_sparse_table_peak_memory():
    # the sparse accumulator stays small next to the table it builds
    system = CoefficientSystem.make((1, 1, 1, -1, -1, 1, 1, 2, 3), 1)
    parts = [from_sparse(s.indices, s.weights) for s in (cube_support(aj, 3 * 10**4, 3 * 10**5) for aj in system.a)]
    tracemalloc.start()
    try:
        table = convolve_full(parts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * table.values.nbytes


def test_dense_table_peak_memory():
    # the spectral route holds the spectrum and the inverse, not a shifted
    # copy of the inverse next to them, and the dense factors' positions
    # are freed before it runs
    rng = np.random.default_rng(417)
    parts = [IndexedWeights(0, rng.random(30000)) for _ in range(3)]
    nfft = convolve._fft_length(sum(len(p.values) - 1 for p in parts) + 1)
    tracemalloc.start()
    try:
        convolve_full(parts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * nfft


def test_spectral_cap_covers_padded_length(monkeypatch):
    # span 11999 fits the cap, the 5-smooth FFT length 12000 does not
    dense = IndexedWeights(0, np.ones(6000))
    assert convolve._fft_length(11999) == 12000
    calls = count_rffts(monkeypatch)
    monkeypatch.setattr(convolve, "CELL_CAP", 11999)
    with pytest.raises(ResourceLimitError):
        convolve_full([dense, dense])
    assert calls == []
    monkeypatch.setattr(convolve, "CELL_CAP", 12000)
    assert len(convolve_full([dense, dense]).values) == 11999
    assert len(calls) == 1
    # a factor of stride 9 takes L to a multiple of 9: span 51000 pads to
    # 51200 plain, but to 51840 = 9 * 5760 with the stride
    strided = IndexedWeights(0, np.zeros(45001))
    strided.values[::9] = 1.0
    assert convolve._fft_length(51000) == 51200 and convolve._fft_length(51000, [9]) == 51840
    calls.clear()
    monkeypatch.setattr(convolve, "CELL_CAP", 51200)
    with pytest.raises(ResourceLimitError):
        convolve_full([dense, strided])
    assert calls == []
    monkeypatch.setattr(convolve, "CELL_CAP", 51840)
    got = convolve_full([dense, strided])
    assert calls == [51840, 5760]
    assert np.abs(got.values - np.convolve(dense.values, strided.values)).max() <= 1e-9


def test_full_cap_refuses_before_direct_stages(monkeypatch):
    # span 11998 pads to 12000; the first stage (31 x 31 products of two
    # sparse factors) is merged, the second (its sums x 6000) is spectral,
    # so the padded length is checked before the first stage runs
    sparse = np.zeros(3000)
    sparse[[0, 1, *range(100, 3000, 100)]] = 1.0  # 31 nonzeros of stride 1
    parts = [IndexedWeights(0, sparse), IndexedWeights(1, sparse.copy()), IndexedWeights(2, np.ones(6000))]
    assert convolve._fft_length(11998) == 12000
    rffts, sumsets = count_rffts(monkeypatch), count_sumsets(monkeypatch)
    monkeypatch.setattr(convolve, "CELL_CAP", 11998)
    with pytest.raises(ResourceLimitError):
        convolve_full(parts)
    assert (rffts, sumsets) == ([], [])
    monkeypatch.setattr(convolve, "CELL_CAP", 12000)
    got = convolve_full(parts)
    assert (rffts, len(sumsets)) == ([12000, 12000], 1)
    offset, want = numpy_chain(parts)
    assert got.offset == offset and np.abs(got.values - want).max() <= 1e-12 * want.max()
    # the same with a last factor of stride 9 (5010 nonzeros): span 51080
    # pads to 51200 plain and to 51840 with the stride, the length its
    # spectral stage takes
    strided = IndexedWeights(2, np.zeros(9 * 5009 + 1))
    strided.values[::9] = 1.0
    parts[2] = strided
    assert convolve._fft_length(51080) == 51200 and convolve._fft_length(51080, [9]) == 51840
    rffts.clear(), sumsets.clear()
    monkeypatch.setattr(convolve, "CELL_CAP", 51200)
    with pytest.raises(ResourceLimitError):
        convolve_full(parts)
    assert (rffts, sumsets) == ([], [])
    monkeypatch.setattr(convolve, "CELL_CAP", 51840)
    assert len(convolve_full(parts).values) == 51080
    assert (rffts, len(sumsets)) == ([51840, 5760], 1)


def test_fft_length_is_least_5_smooth():
    def smooth(n):
        for f in (2, 3, 5):
            while n % f == 0:
                n //= f
        return n == 1

    for n in range(1, 2000):
        length = convolve._fft_length(n)
        assert smooth(length) and length >= n
        assert not any(smooth(m) for m in range(n, length))
    # with a 5-smooth modulus m: the least 5-smooth multiple of m
    for m in filter(smooth, range(2, 61)):
        for n in range(1, 400):
            length = convolve._fft_length(n, [m])
            assert smooth(length) and length % m == 0 and length >= n
            assert not any(smooth(k) for k in range(-(-n // m) * m, length, m))


def test_stride_modulus_takes_5_smooth_parts():
    # 7 and 11 add nothing; a single nonzero (stride 0) adds nothing
    assert convolve._fft_length(1, [14, 9, 0, 1, 55]) == 90
    assert convolve._stride(np.array([3, 9, 21])) == (3, 6)
    assert convolve._stride(np.array([4])) == (4, 0)


def brute_coefficient(parts, target):
    """Sum of weight products over every index tuple that sums to target."""
    total = 0.0
    ranges = [zip(range(p.lo, p.hi + 1), p.values) for p in parts]
    for combo in itertools.product(*(list(r) for r in ranges)):
        if sum(i for i, _ in combo) == target:
            total += math.prod(v for _, v in combo)
    return total


def test_spectral_read_matches_brute_force():
    rng = np.random.default_rng(417)
    shared = random_part(rng, max_len=5, lo_range=(-9, -3))
    cases = [
        [random_part(rng, max_len=6, lo_range=(-8, 8)) for _ in range(4)],
        # strided supports (|a| = 2, 3) with a negated slot
        [integral_support(2, 1, 12), integral_support(-3, 2, 15), integral_support(1, 3, 9)],
        # equal factors as distinct arrays at different offsets, next to a signed one
        [IndexedWeights(shared.offset + i, shared.values.copy()) for i in range(3)]
        + [IndexedWeights(-2, np.array([1.5, 0.0, -0.5, 2.0]))],
        # a factor between copies of its reverse: one rfft, conjugated for the reverse
        [IndexedWeights(o, np.array(v)) for o, v in
         ((3, [1.0, 0.0, 2.0, 0.5]), (-1, [0.5, 2.0, 0.0, 1.0]), (0, [1.0, 0.0, 2.0, 0.5]))],
        # a factor of stride 2 with leading zeros between copies of its
        # reverse: its first nonzero turns the forward and reversed copies
        [IndexedWeights(o, np.array(v)) for o, v in
         ((3, [0.0, 0.0, 1.0, 0.0, 2.0, 0.0]), (-1, [0.0, 2.0, 0.0, 1.0, 0.0, 0.0]),
          (0, [0.0, 0.0, 1.0, 0.0, 2.0, 0.0]), (2, [1.5, 0.0, -0.5]))],
        [IndexedWeights(-4, np.array([0.0, 2.0, 1.0]))],
    ]
    for parts in cases:
        lo, hi = sum(p.lo for p in parts), sum(p.hi for p in parts)
        targets = range(lo - 1, hi + 2)
        for target in targets:
            want = brute_coefficient(parts, target)
            got, bound = convolve_read(parts, target)
            assert abs(got - want) <= bound + 1e-15
            assert got == pytest.approx(want, abs=1e-12)
            if not lo <= target <= hi:
                assert (got, bound) == (0.0, 0.0)


def fft_chain_read(parts, target):
    """Coefficient of target by the cropped chain, each stage a slice-add
    product when its cost is within the direct limit and a power-of-two
    FFT product otherwise."""
    lo_rest, hi_rest = sum(p.lo for p in parts), sum(p.hi for p in parts)
    acc_lo, acc = 0, np.ones(1)
    for p in parts:
        lo_rest, hi_rest = lo_rest - p.lo, hi_rest - p.hi
        short, long_ = (acc, p.values) if len(acc) <= len(p.values) else (p.values, acc)
        size = len(acc) + len(p.values) - 1
        if np.count_nonzero(short) * len(long_) <= convolve._DIRECT_COST_LIMIT:
            full = np.zeros(size)
            for i in np.flatnonzero(short):
                full[i : i + len(long_)] += short[i] * long_
        else:
            nfft = 1 << (size - 1).bit_length()
            spectrum = np.fft.rfft(acc, nfft) * np.fft.rfft(p.values, nfft)
            full = np.fft.irfft(spectrum, nfft)[:size]
        acc_lo += p.lo
        lo, hi = max(acc_lo, target - hi_rest), min(acc_lo + size - 1, target - lo_rest)
        acc, acc_lo = full[lo - acc_lo : hi - acc_lo + 1], lo
    return float(acc[0])


@pytest.mark.parametrize("coeffs", [(1,) * 9, (1, 1, 1, -2, 3, 1, 5, 1, -1)])
@pytest.mark.parametrize("N", [2 * 10**4, 10**5])
def test_spectral_read_matches_staged_read(coeffs, N):
    parts = [integral_support(a, N // 10, N) for a in coeffs]
    for target in (5 * N + 1, N):
        got, bound = convolve_read(parts, target)
        want = fft_chain_read(parts, target)
        assert want > 0
        assert got == pytest.approx(want, rel=1e-12)
        assert abs(got - want) <= bound


def longdouble_coefficient(parts, target):
    """Coefficient of target by an np.convolve chain in long double."""
    values = np.ones(1, dtype=np.longdouble)
    for p in parts:
        values = np.convolve(values, p.values.astype(np.longdouble))
    return values[target - sum(p.lo for p in parts)]


def sparse_coefficient(parts, target):
    """Coefficient of target as an exact sum over the tuples of nonzeros."""
    cells = [[(p.lo + int(i), float(p.values[i])) for i in np.flatnonzero(p.values)] for p in parts]
    return math.fsum(math.prod(w for _, w in combo) for combo in itertools.product(*cells)
                     if sum(i for i, _ in combo) == target)


@pytest.mark.parametrize("coeffs", [(1,) * 9, (1, 1, 1, -2, 3, 1, 5, 1, -1)])
def test_read_within_bound_at_interior_off_centre_and_edge_targets(coeffs):
    # J(n) and tuple-count factors, unstrided and of strides 2, 3 and 5,
    # against a long-double chain; the edge reads are 1e-30 of the centre
    parts = [integral_support(a, 100, 1000) for a in coeffs]
    ones = [IndexedWeights(p.offset, (p.values > 0).astype(np.float64)) for p in parts]
    lo, hi = sum(p.lo for p in parts), sum(p.hi for p in parts)
    for factors in (parts, ones):
        for target in (lo, lo + 3, (lo + hi) // 2, lo + (hi - lo) * 78 // 100, hi - 4, hi):
            got, bound = convolve_read(factors, target)
            assert abs(got - longdouble_coefficient(factors, target)) <= bound


def test_prime_cube_read_within_bound_of_exact_sum():
    # supports of strides 2 (a = +-1) and 4 (a = 2) over three
    # primes a slot: every tuple summed exactly, at each attained target
    # and next to it
    coeffs = (1, 1, -1, 1, 2, 1, -1, 1, 1)
    parts = [from_sparse(s.indices, s.weights)
             for s in (cube_support(aj, 200, 3000) for aj in coeffs)]
    sums = {0}
    for p in parts:
        sums = {x + p.lo + int(i) for x in sums for i in np.flatnonzero(p.values)}
    targets = sorted(sums)
    for target in targets[:3] + targets[len(targets) // 2 : len(targets) // 2 + 3] + targets[-3:]:
        for n in (target, target + 2):
            got, bound = convolve_read(parts, n)
            assert abs(got - sparse_coefficient(parts, n)) <= bound


@pytest.mark.parametrize("nfft", [1, 2, 3, 16, 45, 1000, 6075, 2**20, 6_328_125, 10**7])
def test_coefficient_read_matches_irfft(nfft):
    # random spectra of modulus up to 1: the direct read agrees with the
    # irfft within the read's own term of rounding_bound
    rng = np.random.default_rng(nfft)
    spectrum = np.exp(2j * np.pi * rng.random(nfft // 2 + 1)) * rng.random(nfft // 2 + 1)
    full = np.fft.irfft(spectrum, nfft)
    unit = [IndexedWeights(0, np.ones(1))]
    term = convolve.rounding_bound(unit, nfft) - 64 * np.finfo(float).eps * math.log2(nfft)
    for t in {0, 1 % nfft, nfft // 2, nfft - 1, int(rng.integers(nfft))}:
        assert abs(convolve._coefficient(spectrum, nfft, t) - full[t]) <= term


def test_rounding_bound_adds_the_read_term():
    # the read sums nfft/2 + 1 bins in three levels of b-term products,
    # b^3 >= nfft/2 + 1: the bound carries 3b eps on top of the transforms'
    # 64 eps log2(nfft), and that term stays below the transforms' at
    # every 5-smooth length from 2 to CELL_CAP and every length below 3000
    # (the float N(p) reads at length p)
    eps = np.finfo(float).eps
    unit = [IndexedWeights(0, np.ones(1))]
    lengths = sorted({2**i * 3**j * 5**k for i in range(28) for j in range(18) for k in range(12)
                      if 2 <= 2**i * 3**j * 5**k <= convolve.CELL_CAP} | set(range(2, 3000)))
    for nfft in lengths:
        b = round((nfft // 2 + 1) ** (1 / 3))
        b += b**3 < nfft // 2 + 1
        transforms = 64 * eps * math.log2(nfft)
        read = convolve.rounding_bound(unit, nfft) - transforms
        assert 3 * b * eps <= read < transforms
    mass = [IndexedWeights(0, np.array([2.0, -1.0])), IndexedWeights(5, np.array([0.5, 0.0, 3.0]))]
    assert convolve.rounding_bound(mass, 6075) == pytest.approx(10.5 * convolve.rounding_bound(unit, 6075))


def test_read_route_on_integral_windows(monkeypatch):
    # from README-size windows and integral_stability's N <= 2000 to
    # N = 2e4, each read takes one rfft per cropped factor up to reversal:
    # of the mixed system's five distinct weight arrays, a = -1's reverses
    # a = 1's, and its 0/1 arrays for a = 1 and a = -1 coincide, leaving
    # four of each, transformed at L over their strides 1, 2, 3 and 5; the
    # coefficient is summed from the spectrum with no irfft
    calls, reads = count_rffts(monkeypatch), record_reads(monkeypatch)
    strides = []
    stride = convolve._stride
    monkeypatch.setattr(convolve, "_stride", lambda cells: strides.append(1) or stride(cells))
    mixed = (1, 1, 1, -2, 3, 1, 5, 1, -1)
    for coeffs, M, N, n, distinct in [
        ((1,) * 9, 10, 100, 500, (1,)),
        ((1,) * 9, 100, 1000, 1000, (1,)),
        ((1,) * 9, 200, 2000, 2000, (1,)),
        (mixed, 100, 1000, 14, (1, 2, 3, 5)),
        (mixed, 200, 2000, 14, (1, 2, 3, 5)),
        (mixed, 2000, 20000, 100001, (1, 2, 3, 5)),
    ]:
        assert singular_integral(CoefficientSystem.make(coeffs, n), M, N).value > 0
        parts = [integral_support(a, M, N) for a in coeffs]
        ones = [IndexedWeights(p.offset, (p.values > 0).astype(np.float64)) for p in parts]
        for factors in (parts, ones):
            calls.clear(), reads.clear(), strides.clear()
            value, bound = convolve_read(factors, n)
            (length,) = reads
            assert calls == [length // d for d in distinct]
            assert len(strides) == len(distinct)  # once per distinct factor, not per slot
            assert value > 0 and bound > 0


def test_fourier_read_transforms_odd_prime_cubes_at_half_length(monkeypatch):
    # odd cubes differ by even amounts: each (1,...,1) support has stride
    # 2, so the Fourier read's one transform is at L/2
    calls, reads = count_rffts(monkeypatch), record_reads(monkeypatch)
    planted = sum(p**3 for p in (23, 23, 29, 31, 37, 41, 43, 43, 43))
    for n in (5 * 10**5 + 1, planted):
        calls.clear(), reads.clear()
        r = weighted_count_fourier(CoefficientSystem.make((1,) * 9, n), 10**4, 10**5)
        (length,) = reads
        assert length % 2 == 0 and calls == [length // 2]
        assert (r == 0.0) == (n != planted)


def test_direct_count_never_takes_the_spectral_read(monkeypatch):
    # r(n) takes no transform; it agrees with convolve_read's spectral
    # read of the same supports within the read's bound, and the
    # unattained 5e5 + 1 comes out exactly 0
    planted = sum(p**3 for p in (23, 23, 29, 31, 37, 41, 43, 43, 43))
    systems = [CoefficientSystem.make((1,) * 9, n) for n in (5 * 10**5 + 1, planted)]
    reads = []
    for system in systems:
        sups = [cube_support(aj, 10**4, 10**5) for aj in system.a]
        parts = [from_sparse(s.indices, s.weights) for s in sups]
        reads.append(convolve_read(parts, system.n))

    def refuse(*args, **kwargs):
        raise AssertionError("transform reached")

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, refuse)
    got = [weighted_count_direct(system, 10**4, 10**5) for system in systems]
    assert got[0] == 0.0 and got[1] > 0
    for value, (want, bound) in zip(got, reads):
        assert abs(value - want) <= bound


def test_read_cap_covers_padded_length(monkeypatch):
    # target 5999 sits mid-span: L must exceed 6000, so L = 6075 = 3^5 5^2
    dense = IndexedWeights(0, np.ones(6000))
    assert convolve._fft_length(6001) == 6075
    calls = count_rffts(monkeypatch)
    monkeypatch.setattr(convolve, "CELL_CAP", 6074)
    with pytest.raises(ResourceLimitError):
        convolve_read([dense, dense], 5999)
    assert calls == []
    monkeypatch.setattr(convolve, "CELL_CAP", 6075)
    value, _ = convolve_read([dense, dense], 5999)
    assert value == pytest.approx(6000.0, abs=1e-9)
