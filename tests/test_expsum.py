import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ninecubes import arith, convolve, expsum, search, singular
from ninecubes.arcs import build_dissection
from ninecubes.errors import DomainError, NumericIntegrityError, ResourceLimitError
from ninecubes.expsum import (
    cube_support,
    minor_arc_sup,
    rn_report,
    support_sum,
    weighted_count_direct,
    weighted_count_fourier,
)
from ninecubes.localdata import CoefficientSystem

ONES = CoefficientSystem.make([1] * 9, 23)
MIXED = CoefficientSystem.make([1, 1, 1, -2, 3, 1, 5, 1, -1], 270)


def brute_weighted_count(system, M, N):
    sups = [cube_support(aj, M, N) for aj in system.a]
    total = 0.0
    count = 0
    for tup in itertools.product(*(range(len(s)) for s in sups)):
        value = sum(int(s.indices[i]) for s, i in zip(sups, tup))
        if value == system.n:
            count += 1
            total += math.prod(float(s.weights[i]) for s, i in zip(sups, tup))
    return total, count


def test_support_window_is_half_open():
    sup = cube_support(ONES.a[0], 8, 1000)
    assert list(sup.primes) == [3, 5, 7]  # 2^3 = 8 excluded, 10^3 > 1000
    sup = cube_support(ONES.a[0], 7, 8)
    assert list(sup.primes) == [2]
    scaled = cube_support(MIXED.a[3], 16, 1000)  # a = -2
    assert list(scaled.primes) == [3, 5, 7]
    assert list(scaled.indices) == [-54, -250, -686]
    with pytest.raises(DomainError):
        cube_support(ONES.a[0], 8, 8)


def test_fractional_window_ends_are_refused():
    # each reader of the window refuses a fractional end the same way
    for window in ((10, 100.5), (10, 1000.5), (10.5, 1000)):
        with pytest.raises(DomainError):
            cube_support(1, *window)
        with pytest.raises(DomainError):
            singular.singular_integral(ONES, *window)
        with pytest.raises(DomainError):
            search.find_solution(ONES, 20, window=window)
        with pytest.raises(DomainError):
            search.solution_exists(ONES, 20, window=window)


def test_integral_float_window_ends_read_as_ints():
    for by_float, by_int in ((cube_support(1, 10, 100.0), cube_support(1, 10, 100)),
                             (cube_support(-2.0, 16, 1000), cube_support(-2, 16, 1000))):
        for field in ("primes", "indices", "weights"):
            got, want = getattr(by_float, field), getattr(by_int, field)
            assert got.dtype == want.dtype and np.array_equal(got, want)
    for aj in (1.5, 0):
        with pytest.raises(DomainError):
            cube_support(aj, 8, 1000)
    system = CoefficientSystem.make([1] * 9, 1001)
    assert singular.singular_integral(system, 10.0, 1000.0) == singular.singular_integral(system, 10, 1000)
    assert search.find_solution(system, 20, (10.0, 1000.0)) == search.find_solution(system, 20, (10, 1000))


def test_supports_whose_indices_pass_int64_are_refused_before_the_sieve(monkeypatch):
    # the largest accepted window: icbrt(2^63 - 1) = 2^21 - 1, and every index
    # is the Python-int p^3
    sup = cube_support(1, 10**18, 2**63 - 1)
    assert (len(sup), int(sup.primes[-1])) == (77113, 2097143)
    assert sup.indices.tolist() == [p**3 for p in sup.primes.tolist()]

    def refuse(limit):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.setattr(arith, "sieve_primes", refuse)
    for aj in (1, -3):
        with pytest.raises(ResourceLimitError, match="exceed int64"):
            cube_support(aj, 10**20, 10**21)


def test_equal_coefficients_share_one_support():
    sups = expsum._supports(MIXED, 10, 5000)
    for aj, sup in zip(MIXED.a, sups):
        assert all((other is sup) == (b == aj) for b, other in zip(MIXED.a, sups))
        assert np.array_equal(sup.indices, cube_support(aj, 10, 5000).indices)


def test_single_atom_window_gives_log_power():
    system = CoefficientSystem.make([1] * 9, 72)
    want = math.log(2.0) ** 9
    assert weighted_count_direct(system, 7, 8) == pytest.approx(want, rel=1e-12)
    assert weighted_count_fourier(system, 7, 8) == pytest.approx(want, rel=1e-9)


def test_conjugate_symmetry():
    rng = np.random.default_rng(611)
    for _ in range(25):
        alpha = float(rng.uniform(0, 1))
        sup = cube_support(MIXED.a[int(rng.integers(0, 9))], 10, 5000)
        s1 = support_sum(sup, alpha)
        s2 = support_sum(sup, 1.0 - alpha)
        assert s2 == pytest.approx(s1.conjugate(), abs=1e-8)


def test_mean_square_is_weight_energy():
    # (1/T) sum over the T-th roots recovers sum of squared weights when
    # the support span stays below T
    sup = cube_support(ONES.a[0], 8, 3000)
    span = int(sup.indices.max() - sup.indices.min())
    T = 8192
    assert span < T
    total = 0.0
    for t in range(T):
        s = np.dot(sup.weights, np.exp(2j * np.pi * ((sup.indices * t) % T) / T))
        total += abs(s) ** 2
    energy = float(np.dot(sup.weights, sup.weights))
    assert total / T == pytest.approx(energy, rel=1e-9)


def test_parity_blocked_target_counts_zero():
    # odd cubes only, even target: no solutions at all
    system = CoefficientSystem.make([1] * 9, 1000)
    assert weighted_count_direct(system, 8, 2000) == 0.0
    assert weighted_count_fourier(system, 8, 2000) == 0.0


def test_unattained_target_counts_exactly_zero(monkeypatch):
    # nine window primes in 47..97: 5e6 + 1 has the right parity but is
    # no sum of their cubes.  The join takes no transform, and the
    # Fourier read (B = 325 against a least count of 1.86e5) snaps to 0
    system = CoefficientSystem.make([1] * 9, 5 * 10**6 + 1)
    assert weighted_count_fourier(system, 10**5, 10**6) == 0.0

    def refuse(*args, **kwargs):
        raise AssertionError("transform reached")

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, refuse)
    assert weighted_count_direct(system, 10**5, 10**6) == 0.0


def test_join_cap_refuses_before_the_outer_sum(monkeypatch):
    # 11 primes a slot: slots 1 and 2 form 11 and 121 pairs; their 66
    # distinct sums would form 726 with slot 3
    sizes = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda x, *a, **k: sizes.append(len(x)) or argsort(x, *a, **k))
    system = CoefficientSystem.make([1] * 9, 5 * 10**6 + 1)
    monkeypatch.setattr(convolve, "CELL_CAP", 725)
    with pytest.raises(ResourceLimitError):
        weighted_count_direct(system, 10**5, 10**6)
    assert sizes == [11, 121]


@pytest.mark.parametrize(
    "read, want",
    [
        ((1e-3, 1e-3), 0.0),
        ((-1e-3, 1e-3), 0.0),
        ((0.0369, 1e-3), 0.0369),
        ((0.02, 1e-3), NumericIntegrityError),
        ((-0.01, 1e-3), NumericIntegrityError),
        ((0.01, 0.02), 0.01),  # bound past half the least count: read as it is
        ((-0.01, 0.02), -0.01),
    ],
)
def test_fourier_read_is_zero_or_a_count(monkeypatch, read, want):
    # one atom per slot: every solution adds log(2)^9 = 0.0369
    monkeypatch.setattr(convolve, "convolve_read", lambda *args, **kwargs: read)
    system = CoefficientSystem.make([1] * 9, 72)
    if want is NumericIntegrityError:
        with pytest.raises(NumericIntegrityError):
            weighted_count_fourier(system, 7, 8)
    else:
        assert weighted_count_fourier(system, 7, 8) == want


def test_counts_match_brute_force():
    want, count = brute_weighted_count(MIXED, 8, 1000)
    assert count > 0
    assert weighted_count_direct(MIXED, 8, 1000) == pytest.approx(want, rel=1e-9)
    assert weighted_count_fourier(MIXED, 8, 1000) == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize(
    "coeffs, primes, N",
    [
        ((1,) * 9, (2, 3, 5, 7, 11, 13, 17, 19, 23), 20000),  # all equal
        ((3,) * 9, (2, 3, 5, 7, 11, 13, 11, 7, 5), 10000),  # all equal, not 1
        ((1, -2, 3, 5, -7, 11, 13, 17, 19), (3, 2, 5, 3, 2, 3, 2, 2, 3), 5000),  # all distinct
    ],
)
def test_fourier_matches_direct(coeffs, primes, N):
    system = CoefficientSystem.make(coeffs, sum(a * p**3 for a, p in zip(coeffs, primes)))
    want = weighted_count_direct(system, 7, N)
    assert want > 0
    assert weighted_count_fourier(system, 7, N) == pytest.approx(want, rel=1e-9)


def test_fourier_read_is_cropped_at_an_edge_target(monkeypatch):
    # n sits 90,108 above the least attainable sum 9 * 47^3 and 7.19e6
    # below the greatest 9 * 97^3: the read crops the supports to n's reach
    system = CoefficientSystem.make([1] * 9, 1_024_515)
    M, N = 10**5, 10**6
    lengths = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda x, n, *a, **k: lengths.append(n) or rfft(x, n, *a, **k))
    r = weighted_count_fourier(system, M, N)
    read = lengths[:]
    sups = [cube_support(aj, M, N) for aj in system.a]
    lengths.clear()
    convolve.convolve_read([convolve.from_sparse(s.indices, s.weights) for s in sups], system.n)
    assert read == lengths
    # uncropped, the read needs the least 5-smooth length past n's distance to either end
    reach = max(system.n - sum(int(s.indices.min()) for s in sups),
                sum(int(s.indices.max()) for s in sups) - system.n)
    uncropped = convolve._fft_length(reach + 1)
    assert uncropped == 7_200_000
    assert max(read) < uncropped
    assert r == pytest.approx(weighted_count_direct(system, M, N), rel=1e-12)


def test_fourier_span_cap_refuses_before_any_support_is_built(monkeypatch):
    # nine slots from 149^3 to 307^3: a product span of 2.3e8 cells
    def refuse(*args, **kwargs):
        raise AssertionError("support built")

    monkeypatch.setattr(convolve, "from_sparse", refuse)
    N = 3 * 10**7
    system = CoefficientSystem.make([1] * 9, 9 * 227**3)
    with pytest.raises(ResourceLimitError):
        weighted_count_fourier(system, N // 10, N)


def test_rn_refuses_an_oversized_window_before_any_route(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("route reached")

    for module, name in [
        (expsum, "weighted_count_direct"),
        (expsum, "weighted_count_fourier"),
        (singular, "singular_series_partial"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    N = singular.INTEGRAL_N_CAP + 1
    system = CoefficientSystem.make([1] * 9, 9 * N + 1)
    with pytest.raises(ResourceLimitError):
        rn_report(system, N // 10, N)


def test_fourier_transforms_once_per_distinct_coefficient(monkeypatch):
    calls = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda x, *a, **k: calls.append(1) or rfft(x, *a, **k))
    coeffs = (1,) * 7 + (2, 3)
    system = CoefficientSystem.make(coeffs, 7 * 8 + 2 * 27 + 3 * 125)
    assert weighted_count_fourier(system, 7, 1000) > 0
    assert len(calls) == 3


def window_atoms(aj, M, N):
    """(a_j p^3, log p) for primes p with M < |a_j| p^3 <= N, by trial division."""
    primes = [p for p in range(2, round(N ** (1 / 3)) + 2) if all(p % d for d in range(2, p))]
    return [(aj * p**3, math.log(p)) for p in primes if M < abs(aj) * p**3 <= N]


def dict_oracle(coeffs, n, M, N):
    """Library-free r(n) by a slot-by-slot dict of sum -> weight; None if unattained."""
    acc = {0: 1.0}
    for aj in coeffs:
        nxt = {}
        for total, w in acc.items():
            for v, logp in window_atoms(aj, M, N):
                nxt[total + v] = nxt.get(total + v, 0.0) + w * logp
        acc = nxt
    return acc.get(n)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_routes_match_dict_oracle(data):
    coeffs = data.draw(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3, 13]), min_size=9, max_size=9))
    # M < 104 = 13 * 2^3 and N >= 125 leave few slots empty
    N = data.draw(st.integers(125, 3000))
    M = data.draw(st.integers(1, 103))
    atoms = [window_atoms(aj, M, N) for aj in coeffs]
    if all(atoms) and data.draw(st.booleans()):
        n = sum(data.draw(st.sampled_from(a))[0] for a in atoms)
    else:
        n = data.draw(st.integers(-9 * N, 9 * N))
    system = CoefficientSystem.make(coeffs, n)
    want = dict_oracle(coeffs, n, M, N)
    direct = weighted_count_direct(system, M, N)
    fourier = weighted_count_fourier(system, M, N)
    if want is None:
        assert direct == 0.0
        want = 0.0
    else:
        assert direct == pytest.approx(want, rel=1e-9)
    assert abs(fourier - want) <= 1e-6 * (1 + want)


def test_minor_scan_report_shape():
    dis = build_dissection(20000, 2, 0.01, 1.0)
    rep = minor_arc_sup(ONES, dis, 100, 20000, grid_step=0.01)
    assert rep.points_total == 100
    assert 0 <= rep.points_minor <= rep.points_total
    assert rep.reference_power == pytest.approx(float(20000) ** (19.0 / 60.0))
    if rep.points_minor:
        sup = cube_support(ONES.a[8], 100, 20000)
        assert rep.sup_abs <= float(sup.weights.sum()) + 1e-9
        assert rep.ratio == pytest.approx(rep.sup_abs / rep.reference_power)


def test_minor_scan_refuses_a_nan_or_subnormal_grid_step(monkeypatch):
    def no_support(*args):
        raise AssertionError("support built for a refused grid")

    monkeypatch.setattr(expsum, "cube_support", no_support)
    dis = build_dissection(20000, 2, 0.01, 1.0)
    with pytest.raises(DomainError, match="grid step"):
        minor_arc_sup(ONES, dis, 100, 20000, grid_step=math.nan)
    # 1 / 1e-320 is inf: refused by the point cap, as 1e-308 is
    for step in (1e-320, 1e-308):
        with pytest.raises(ResourceLimitError, match="exceeds cap"):
            minor_arc_sup(ONES, dis, 100, 20000, grid_step=step)


@pytest.mark.parametrize(
    "system, N, D, eps, c, step",
    [
        (ONES, 2000, 2, 0.01, 1.0, 0.01),
        (MIXED, 20000, 3, 0.05, 0.5, 0.007),
        (ONES, 16, 2, 0.01, 1.5, 0.5),  # Q = 3: both grid points fall on the arc at 1/1
    ],
)
def test_minor_scan_against_brute_force(system, N, D, eps, c, step):
    # each grid point classified by exact membership in the arc list, and
    # |S_9| summed term by term with each phase a_9 p^3 alpha reduced mod 1
    # in rational arithmetic
    dis = build_dissection(N, D, eps, c)
    a9 = system.a[8]
    primes = [
        p for p in range(2, round(N ** (1 / 3)) + 2)
        if all(p % d for d in range(2, p)) and abs(a9) * p**3 <= N
    ]
    start = 1.0 / dis.Q
    minor, best = 0, None
    for i in range(math.ceil(1 / step)):
        alpha = start + i * step
        if alpha >= 1.0 + start:
            break
        x = Fraction(alpha) % 1
        if x < Fraction(1, dis.Q):
            x += 1
        if any(arc.lo <= x <= arc.hi for arc in dis.arcs):
            continue
        minor += 1
        phases = (Fraction(a9 * p**3) * Fraction(alpha) % 1 for p in primes)
        terms = (math.log(p) * cmath.exp(2j * math.pi * float(t)) for p, t in zip(primes, phases))
        mag = abs(sum(terms))
        if best is None or mag > best[0]:
            best = (mag, alpha)
    rep = minor_arc_sup(system, dis, 1, N, grid_step=step)
    assert primes and (minor == 0) == (N == 16)
    assert rep.points_minor == minor
    if best is None:
        assert (rep.sup_abs, rep.sup_alpha, rep.ratio) == (None, None, None)
    else:
        assert rep.sup_alpha == best[1]
        assert rep.sup_abs == pytest.approx(best[0], rel=1e-12)


def test_support_sum_blocks_keep_the_bits(monkeypatch):
    # several blocks and a short last one: each point's sum has the bits of
    # the single-alpha formula, one np.dot over its row
    sup = cube_support(MIXED.a[8], 10, 10**7)
    monkeypatch.setattr(expsum, "_BLOCK_CELLS", 7 * len(sup) + 3)
    alphas = np.random.default_rng(612).uniform(0, 1, 60)
    got = support_sum(sup, alphas)
    for alpha, value in zip(alphas, got):
        phase = (sup.indices.astype(np.float64) * alpha) % 1.0
        assert value == complex(np.dot(sup.weights, np.exp(2j * np.pi * phase)))
        assert support_sum(sup, float(alpha)) == value


def test_rn_report_round_trip():
    system = CoefficientSystem.make([1] * 9, 72)
    rep = rn_report(system, 7, 8)
    assert rep.n == 72 and rep.M == 7 and rep.N == 8
    assert rep.coeffs == (1,) * 9
    assert rep.r_direct == pytest.approx(math.log(2.0) ** 9, rel=1e-12)
    assert rep.r_fourier == pytest.approx(rep.r_direct, rel=1e-9)
