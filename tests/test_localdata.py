import cmath
import copy as copy_module
import dataclasses
import functools
import hashlib
import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from ninecubes import arith, characters, localdata, singular
from ninecubes.characters import DirichletCharacter, character_group, unit_roots
from ninecubes.errors import DomainError, NumericIntegrityError, ResourceLimitError
from ninecubes.selftest import random_valid_system
from ninecubes.localdata import (
    CoefficientSystem,
    char_sum_bound_ok,
    cubic_char_sum_table,
    euler_factor,
    local_data,
    principal_cubic_table,
    prime_power_sum,
    principal_twisted_sum,
    series_term,
    unit_solution_count,
    unit_solution_count_float,
)

ONES = CoefficientSystem.make([1] * 9, 23)
MIXED = CoefficientSystem.make([1, 1, 1, -2, 3, 1, 5, 1, -1], 14)


def brute_count(q, system):
    """Unit-tuple solution count by direct dict convolution (exact ints)."""
    counts = {0: 1}
    for a in system.a:
        hist = {}
        for k in range(q):
            if math.gcd(k, q) != 1:
                continue
            r = a * k**3 % q
            hist[r] = hist.get(r, 0) + 1
        new = {}
        for r1, c1 in counts.items():
            for r2, c2 in hist.items():
                r = (r1 + r2) % q
                new[r] = new.get(r, 0) + c1 * c2
        counts = new
    return counts.get(system.n % q, 0)


def brute_series_term(q, system):
    """A(q) from the definition with cmath arithmetic only."""
    units = [k for k in range(max(q, 1)) if math.gcd(k, q) == 1] or [0]

    def c_sum(m):
        return sum(cmath.exp(2j * cmath.pi * (m * x**3 % q) / q) for x in units)

    total = 0j
    for k in units:
        term = cmath.exp(-2j * cmath.pi * (k * system.n % q) / q)
        for a in system.a:
            term *= c_sum(a * k % q)
        total += term
    phi = len(units)
    return total.real / phi**9


def test_validator_messages():
    # the constructor refuses a shape with its one message; violations()
    # names the solvability conditions a system breaks
    assert CoefficientSystem([1] * 9, 23).violations() == []
    assert CoefficientSystem(MIXED.a, 14).violations() == []
    with pytest.raises(DomainError, match="expected 9 coefficients"):
        CoefficientSystem([1] * 8, 5)
    with pytest.raises(DomainError, match="nonzero"):
        CoefficientSystem([1] * 8 + [0], 5)
    with pytest.raises(DomainError, match=r"^expected an integer, got 1\.5$"):
        CoefficientSystem([1.5] + [1] * 8, 3)
    msgs = CoefficientSystem([1] * 9, 24).violations()
    assert len(msgs) == 1 and msgs[0].startswith("parity violated")
    msgs = CoefficientSystem([2, 4, 1, 1, 1, 1, 1, 1, 1], 14).violations()
    assert any("share a factor" in m for m in msgs)
    msgs = CoefficientSystem([3, 3, 3, 3, 3, 3, 3, 3, 3], 27).violations()
    assert any("gcd of n" in m for m in msgs)


def test_system_construction_guards():
    with pytest.raises(DomainError):
        CoefficientSystem.make([1] * 8, 5)
    with pytest.raises(DomainError):
        CoefficientSystem.make([1] * 8 + [0], 5)
    assert ONES.size_bound == 2
    assert MIXED.size_bound == 5
    assert MIXED.coefficient_product == 30


def test_non_integral_systems_and_characters_are_refused():
    # converted first, then validated: a fraction is neither truncated nor
    # kept, so no later check meets a zero coefficient or a float n
    for make in (
        lambda: CoefficientSystem((0.5,) + (1,) * 8, 3),
        lambda: CoefficientSystem((1,) * 9, 3.7),
        lambda: CoefficientSystem.make([1.5] * 9, 3),
        lambda: DirichletCharacter(7, (1.5,)),
        lambda: DirichletCharacter(7, ("1",)),
    ):
        with pytest.raises(DomainError, match="expected an integer"):
            make()
    system = CoefficientSystem((np.int64(1), 1.0) + (1,) * 7, 23.0)
    assert system == ONES and type(system.n) is int and type(system.a[0]) is int
    assert DirichletCharacter(7, (np.int64(2),)).index == 2


def test_counts_match_brute_force():
    rng = np.random.default_rng(311)
    systems = [ONES, MIXED]
    for _ in range(3):
        coeffs = [int(rng.integers(1, 7)) * int(rng.choice([-1, 1])) for _ in range(9)]
        systems.append(CoefficientSystem.make(coeffs, int(rng.integers(0, 50))))
    for q in (2, 3, 4, 5, 8, 9, 12, 16, 25, 27, 30):
        for system in systems:
            assert unit_solution_count(q, system) == brute_count(q, system)


def shared_transform_systems(p):
    """Systems with repeated, negated, cube-equivalent and p-divisible coefficients."""
    n = 12345 + p
    return [
        CoefficientSystem.make([1] * 9, n),  # repeated
        CoefficientSystem.make([2, 2, 2, 3, 3, 3, 5, 5, 7], n),  # repeated, several values
        CoefficientSystem.make([1, -1, 1, -1, 2, -2, 3, -3, 1], n),  # negated
        CoefficientSystem.make([3, 24, 3, 24, 5, 40, 1, 8, -1], n),  # a and 8a = a 2^3
        CoefficientSystem.make([1] * 8 + [p], n),  # one slot vanishes mod p
        CoefficientSystem.make([p, 2 * p, 1, 1, 2, 2, 3, 5, 7], n),  # two of them do
    ]


def test_float_count_matches_exact_count():
    for p in arith.sieve_primes(500):
        for system in shared_transform_systems(p):
            exact = unit_solution_count(p, system)
            shadow = unit_solution_count_float(p, system)
            if exact < 2**48:  # a double still holds the count with room for FFT rounding
                assert round(shadow) == exact
            else:
                assert shadow == pytest.approx(exact, rel=1e-13)


def test_float_count_transforms_once_per_distinct_histogram(monkeypatch):
    calls = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda x, *a, **k: calls.append(1) or rfft(x, *a, **k))
    # cubing permutes the units mod 503 = 2 mod 3, so every unit coefficient
    # has the same histogram
    unit_solution_count_float(503, ONES)
    assert len(calls) == 1
    calls.clear()
    # mod 7 = 1 mod 3, 2 is not a cube: 1, -1 and 8 share, 2 does not
    unit_solution_count_float(7, CoefficientSystem.make([1, -1, 8, 1, 1, 1, 1, 1, 2], 5))
    assert len(calls) == 2


def test_closed_form_prime_count_matches_crt_count():
    # N(p) from Gaussian periods and the cubic Jacobi sum against the
    # convolution count, with targets prime to p, divisible by p and
    # negative, and a coefficient 2p - 1 = -1 mod p beside a -1
    for p in arith.sieve_primes(500):
        if p == 3:
            continue
        systems = shared_transform_systems(p)
        systems.append(CoefficientSystem.make([1, 2 * p - 1, 1, -1, 2, 1, 5, 1, 1], 0))
        for system in systems:
            for n in (system.n, 7 * p, -(12345 + p)):
                target = CoefficientSystem.make(system.a, n)
                assert unit_solution_count(p, target) == localdata._count_by_convolution(p, target)


def test_prime_sums_match_the_definition_count():
    # one pass over every prime 5 <= p <= 200 against p N(p) - phi(p)^9 by
    # convolution: 1001 = 7 11 13 puts p | a_j at 7, 11 and 13, the targets
    # 1615 = 5 17 19 and -2002 put p | n, beside n = 0, negative n and n = +-1
    primes = tuple(p for p in arith.sieve_primes(200) if p >= 5)
    for a in ([1, 1, 1, -1, 1001, 1, 3, 1, -1], [1001, 1001, 2, 2, -5, -1, 1, 1, 1]):
        for n in (1615, 0, -1615, -2002, -12347, 1, -1):
            system = CoefficientSystem.make(a, n)
            sums = tuple(localdata.prime_sums(primes, system))
            assert sums == tuple(
                p * localdata._count_by_convolution(p, system) - (p - 1) ** 9 for p in primes
            )


def test_closed_form_reads_one_index_per_distinct_coefficient(monkeypatch):
    # at p = 7 = 1 mod 3: one cubic-character index each for 2, 5 and n,
    # none for the six slots holding 1 or -1, none for 14 (7 divides it);
    # the period algebra at 7 is built first, as it takes an inverse by pow
    localdata._period_algebra(7)
    calls = []
    monkeypatch.setattr(localdata, "pow", lambda *a: calls.append(a[0]) or pow(*a), raising=False)
    system = CoefficientSystem.make([1, 1, -1, 2, 2, 5, 1, -1, 14], 19)
    next(localdata.prime_sums((7,), system))
    assert sorted(calls) == [2, 5, 19]


def test_period_algebra_matches_brute_force():
    # every cached cyclotomic number against a direct count of
    # (h, m) = #{u in R_h : 1 + u in R_m}, R_i = {t : t^f = w^i mod p}
    for p in arith.sieve_primes(400):
        if p % 3 != 1:
            continue
        x, y = localdata._primary_prime(p)
        assert x * x - x * y + y * y == p and x % 3 == 2 and y % 3 == 0
        index, times, powers = localdata._period_algebra(p)
        f = (p - 1) // 3
        assert sorted(index.values()) == [0, 1, 2] and all(pow(w, 3, p) == 1 for w in index)
        cls = {t: index[pow(t, f, p)] for t in range(1, p)}
        count = [[0] * 3 for _ in range(3)]
        for u in range(1, p - 1):
            count[cls[u]][cls[u + 1]] += 1
        for j, k, a in itertools.product(range(3), repeat=3):
            assert times[j][k][a] + f * (a == j) == count[(j - a) % 3][(k - a) % 3]
        if p < 100:
            # eta_0^k for k <= 10 as exact integer sums c_t zeta^t, one product by
            # eta_0 at a time; zeta, ..., zeta^(p-1) are a basis and 1 is minus
            # their sum, so coordinate i is c_t - c_0 for every t in R_i
            assert len(powers) == 11
            power = [1] + [0] * (p - 1)
            for want in powers:
                assert all(power[t] - power[0] == want[i] for t, i in cls.items()), p
                power = [sum(power[(t - s) % p] for s in cls if cls[s] == 0) for t in range(p)]


def test_closed_form_rejects_a_non_primary_prime(monkeypatch):
    # -pi = 1 mod 3 is not primary; its cyclotomic numbers are not integers.
    # The test runs on an empty period-algebra cache of its own, so the
    # shared cache neither serves it the true algebra nor keeps its data.
    algebra = functools.lru_cache(localdata._period_algebra.__wrapped__)
    monkeypatch.setattr(localdata, "_period_algebra", algebra)
    primary = localdata._primary_prime
    monkeypatch.setattr(localdata, "_primary_prime", lambda p: tuple(-c for c in primary(p)))
    for p in (7, 13, 499):
        with pytest.raises(NumericIntegrityError):
            localdata._prime_count(p, MIXED)


def composed_systems(q):
    """shared_transform_systems(q) plus 9 | a_j and 27 | a_j, each next to a slot
    holding the least prime p of q once (p | a_j, but not p^2 when p != 3)."""
    n = 12345 + q
    (p, _), *_ = arith.factorize(q)
    return shared_transform_systems(q) + [
        CoefficientSystem.make([9, p, 2, 1, 1, 5, 1, 1, 7], n),
        CoefficientSystem.make([27, p, 1, 1, 1, 1, 5, 1, -1], n),
    ]


def test_composed_count_matches_crt_count():
    # Hensel lifting and CRT products against the convolution count at
    # every q <= 300 and every higher prime power p^e <= 2000 (e >= 2)
    powers = [p**e for p in arith.sieve_primes(44) for e in range(2, 11) if 300 < p**e <= 2000]
    for q in [*range(2, 301), *powers]:
        for system in composed_systems(q):
            assert unit_solution_count(q, system) == localdata._count_by_convolution(q, system), (
                q, system
            )


def test_prime_dividing_every_coefficient_is_refused():
    # pairwise-coprime systems never have one, so N(q) refuses it at every
    # q it divides, whether or not it divides n, and counts the rest of q
    for q, a in [(25, 5), (50, 5), (27, 3), (7, 7), (27, 9)]:
        for n in (1, 7 * a, 7 * a * a):
            system = CoefficientSystem.make([a, 2 * a, -a, a, a, 3 * a, a, a, a], n)
            with pytest.raises(DomainError):
                unit_solution_count(q, system)
    system = CoefficientSystem.make([5, 10, -5, 5, 5, 15, 5, 5, 5], 35)
    assert unit_solution_count(12, system) == brute_count(12, system)


def test_three_power_counts_match_the_reference_count():
    # N(3) and N(9) from the signs of unit cubes mod 9, Hensel-lifted above,
    # next to slots with 3 | a_j and 9 | a_j, at every target residue mod 9
    systems = [
        ONES,
        MIXED,
        CoefficientSystem.make([3, 1, 2, 1, 1, 5, 1, 1, 7], 0),
        CoefficientSystem.make([9, 1, 2, -1, 1, 5, 1, 1, 7], 0),
        CoefficientSystem.make([9, 3, 27, 1, 1, -1, 2, 1, 1], 0),
        CoefficientSystem.make([3, 3, 3, 3, 3, 3, 3, 3, 1], 0),
    ]
    for e in range(1, 6):
        for system in systems:
            for n in range(9):
                target = CoefficientSystem.make(system.a, 100 + n)
                assert unit_solution_count(3**e, target) == localdata._count_by_convolution(
                    3**e, target
                ), (e, target)


def test_prime_power_terms_match_the_definition():
    # A(p^e) from exact counts against the cmath definition, including
    # slots with 3 | a_j or 9 | a_j
    systems = [ONES, MIXED, CoefficientSystem.make([9, 1, 2, -1, 1, 5, 1, 1, 7], 16)]
    for p, e in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (13, 1)]:
        for system in systems:
            assert prime_power_sum(p, e, system) / arith.euler_phi(p**e) ** 9 == pytest.approx(
                brute_series_term(p**e, system), abs=1e-12
            ), (p, e, system)


def test_exact_term_at_27_vanishes_on_valid_systems():
    # N(27) = 3^8 N(9) when some a_j is prime to 3, so g(27) = g(9) exactly
    rng = np.random.default_rng(313)
    systems = [ONES, MIXED, CoefficientSystem.make([9, 1, 2, -1, 1, 5, 1, 1, 7], 16)]
    systems += [random_valid_system(rng, 1, 1000) for _ in range(20)]
    for system in systems:
        assert not system.violations()
        assert prime_power_sum(3, 3, system) == 0


def test_counts_take_no_convolution_or_transform(monkeypatch):
    # A(q) stays on its DFT route and is computed first; the counts N(p) at
    # p != 3 and local_data at a composite q take no np.convolve and no
    # np.fft function
    unit_solution_count.cache_clear()
    calls = []

    def watch(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(name) or fn(*a, **k))

    primes = [2, 5, 7, 13, 499, 503, 997]
    # 7 13 19, 2 29 31, 2^4 5^3, 3^2, 3^3, 3^5 7, 2 3^3 37
    composites = [1729, 1798, 2000, 9, 27, 1701, 1998]
    for q in primes + composites:
        series_term(q, MIXED)
    watch(np, "convolve")
    for name in np.fft.__all__:
        watch(np.fft, name)
    for p in primes:
        unit_solution_count(p, MIXED)
    for q in composites:
        local_data(q, MIXED)
    assert calls == []


def test_histograms_built_once_per_distinct_residue(monkeypatch):
    calls = []
    bincount = np.bincount
    monkeypatch.setattr(np, "bincount", lambda x, *a, **k: calls.append(1) or bincount(x, *a, **k))
    hists = localdata._unit_cube_histograms(13, ONES)
    assert len(calls) == 1
    assert all(h is hists[0] for h in hists)
    calls.clear()
    # (1, 1, 1, -2, 3, 1, 5, 1, -1) mod 7 = (1, 1, 1, 5, 3, 1, 5, 1, 6)
    hists = localdata._unit_cube_histograms(7, MIXED)
    assert len(calls) == 4
    assert hists[0] is hists[1] is hists[2] is hists[5] is hists[7]
    assert hists[3] is hists[6]
    for aj, h in zip(MIXED.a, hists):
        want = [0] * 7
        for k in range(1, 7):
            want[aj * k**3 % 7] += 1
        assert h.tolist() == want


def test_series_term_matches_definition():
    rng = np.random.default_rng(312)
    systems = [ONES, MIXED]
    coeffs = [int(rng.integers(1, 5)) * int(rng.choice([-1, 1])) for _ in range(9)]
    systems.append(CoefficientSystem.make(coeffs, int(rng.integers(0, 40))))
    for q in (1, 2, 3, 5, 6, 7, 9, 10, 13, 14, 15, 18):
        for system in systems:
            assert series_term(q, system) == pytest.approx(
                brute_series_term(q, system), abs=1e-10
            )


def test_cubic_char_sum_matches_definition():
    for q in (7, 9, 13):
        for chi in character_group(q):
            table = cubic_char_sum_table(chi)
            values = chi.value_table()
            for a in range(q):
                brute = sum(
                    values[x] * cmath.exp(2j * cmath.pi * (a * x**3 % q) / q)
                    for x in range(q)
                    if math.gcd(x, q) == 1
                )
                assert abs(table[a] - brute) < 1e-10


CHAR_MODULI = (2, 3, 4, 5, 7, 8, 9, 13, 16, 25, 27, 32, 49, 81, 125, 243, 256, 289, 343, 997, 1024)
# sha256 over the tables of character_group(q), in its order, from the
# per-character path (np.add.at, then one length-q inverse FFT per character)
CHAR_TABLE_SHA256 = {
    2: "f22632020555098d523f7f407516ba415cf32b8192c8759925bc03e305be5f56",
    3: "968273574753765d3daf78234eb91def7bfd7b545767320ec6b09b40f1099e7f",
    4: "9273b5816bb47bfd2487bc5e946d73ab234e1aecf79a201ca5f7a9e83ce2c25f",
    5: "01d0cc194d08967489f2ad3b83854a6baa5e6fd1cb0e38a8d6d67dd8283a2754",
    7: "eb3439b50bf18aaec12a38e5f781013e857843699198db6e657e5ce056f253f1",
    8: "e8cf5cc6c3bb8014028ecdcd201b7e52f26b7f09257a51cea72b47aa27dbbc5b",
    9: "d89b24a849bfddc44dbb52714ae1239c41dc5c498a63d108c023ae8144c4fde2",
    13: "31e93adca5f28a70c8929054288951848cec54fb879f141ea337ed97c0fce861",
    16: "0465af4fcf00ce11eec1e21d63c77810f9553d86517154edeca0019fb405875d",
    25: "e21bf938a6c150bfa7987ab0d07c769dec76571c6502d7e02b250379e79b1660",
    27: "38f96db507cbc494eda46470bfcaa3c16d273b5642f35a35744f359e3282a2e7",
    32: "2014eabe108075c80f88d2d36616978ddf997fe70b1f06a709fd867b8e1489dc",
    49: "6f03fc915d2e7a4c0fde13fafe41a09e8a77b51486d6ba8fe17f521e87180519",
    81: "871d91a6be810da4857950b516f326eceb9fb1ed8a0ba1c33f13d384412bc448",
    125: "871745271ea07600e608b39ffe8c761e2239d6d0faa20537b09f32c410713116",
    243: "98933ac0636c091be026076d58183d2f5174297ddf3f6373a22a626a63cf36c8",
    256: "3e1b06b40785547f50cd6cfa3d354bf4f259e6a478b2a0c16a16f4528b321f9c",
    289: "a03c485a1956c4a0fac6b6d309c18598b9c0335a86524ec94849e0bc3f361dd6",
    343: "dd75b9e1f52c2eae2a329e2184776eefa2006d9c2d41304f9766ce428907a9ca",
    997: "8247718b95b710222543a31e135bdc0ac3ab4adf038853417142a745b22862b1",
    1024: "c395322c0eba57de2e5f3a7555eeb41f6843a3a187b02a9267b445dcdd0f7d07",
}


def test_character_group_matches_the_validating_constructor():
    # character_group sets each character from its own enumeration; the public
    # constructor checks the exponents and computes the index itself
    for q in CHAR_MODULI:
        for chi in character_group(q):
            ref = DirichletCharacter(q, chi.exponents)
            assert (chi.modulus, chi.exponents, chi.index) == (ref.modulus, ref.exponents, ref.index)
            assert chi == ref and hash(chi) == hash(ref)
            assert chi.is_principal == ref.is_principal == all(e == 0 for e in chi.exponents)


def per_character_table(chi):
    """C_chi one character at a time: the histogram at the cubes, then q ifft."""
    q = chi.modulus
    hist = np.zeros(q, dtype=np.complex128)
    np.add.at(hist, np.arange(q) ** 3 % q, chi.value_table())
    return q * np.fft.ifft(hist)


def test_char_sum_blocks_match_the_per_character_path_bit_for_bit():
    # 997 and 1024 span several blocks; the others fit in one
    for q in CHAR_MODULI:
        digest = hashlib.sha256()
        for chi in character_group(q):
            table = cubic_char_sum_table(chi)
            digest.update(table.tobytes())
            if not chi.is_principal:
                want = per_character_table(chi)
                assert np.array_equal(table, want) and table.tobytes() == want.tobytes(), (q, chi)
        assert digest.hexdigest() == CHAR_TABLE_SHA256[q], q


def test_char_sums_sum_to_phi_times_the_additive_character():
    # sum over chi of C_chi(a) = phi(q) e(a/q): only k = 1 survives orthogonality
    for q in (7, 16, 27, 343, 997, 1024):
        total = sum(cubic_char_sum_table(chi) for chi in character_group(q))
        want = arith.euler_phi(q) * np.exp(2j * np.pi * np.arange(q) / q)
        assert np.abs(total - want).max() <= 1e-9 * arith.euler_phi(q) * q, q


def test_char_sum_rows_are_read_only_and_one_block_is_cached():
    localdata._char_sum_block.cache_clear()
    for q in (1, 7, 997):
        group = character_group(q)
        for chi in group[:2] + group[-1:]:
            with pytest.raises(ValueError):
                cubic_char_sum_table(chi)[0] = 1.0
    rows = localdata.CHAR_BLOCK // 997
    localdata._char_sum_block.cache_clear()
    for chi in character_group(997)[1:]:
        block = localdata._char_sum_block(997, chi.index // rows)
        assert block.shape[0] <= rows and block.size <= 1 << 17
    info = localdata._char_sum_block.cache_info()
    assert (info.misses, info.currsize) == (-(-996 // rows), 1)


def test_one_character_near_the_cap_takes_one_row(monkeypatch):
    # one non-principal character at q = 999983 allocates O(q): one row, no
    # exponent list or table of the whole group
    def refuse(*args, **kwargs):
        raise AssertionError("built the whole group")

    q = 999983
    chi = DirichletCharacter(q, (5,))
    arith.unit_group(q)
    monkeypatch.setattr(characters, "character_group", refuse)
    monkeypatch.setattr(characters, "product", refuse)
    localdata._char_sum_block.cache_clear()
    tracemalloc.start()
    try:
        table = cubic_char_sum_table(chi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (q,) and table.base.shape == (1, q) and peak < 6 * 16 * q
    assert abs(table[0]) < 1e-6 * q  # sum of chi over the units vanishes


def test_unit_weighted_sum_mod_2():
    # the single unit mod 2 gives B(2) = (-1)^(n + sum a)
    for n in (23, 31, 1):
        system = CoefficientSystem.make([1] * 9, n)
        value = principal_twisted_sum(2, system, units_only=True)
        assert value == pytest.approx(1.0)
    even = CoefficientSystem.make([1] * 9, 14)
    assert principal_twisted_sum(2, even, units_only=True) == pytest.approx(-1.0)


def test_full_sum_counts_solutions():
    # summing the twist over all residues k recovers q times the unit count
    for q in (2, 3, 4, 9, 10, 27):
        for system in (ONES, MIXED):
            value = principal_twisted_sum(q, system, units_only=False)
            target = q * unit_solution_count(q, system)
            assert abs(value.imag) <= 1e-9 * (1 + target)
            assert round(value.real) == target
            assert abs(value.real - target) <= 1e-6 * (1 + target)


def test_system_hash_is_stored_and_survives_copies():
    a = [1, 1, 1, -2, 3, 1, 5, 1, -1]
    one, two = CoefficientSystem.make(a, 10**30), CoefficientSystem(tuple(a), 10**30)
    assert one == two and hash(one) == hash(two)
    moved = dataclasses.replace(one, n=15)
    assert moved == CoefficientSystem.make(a, 15) and hash(moved) == hash(CoefficientSystem.make(a, 15))
    back = pickle.loads(pickle.dumps(one))
    assert back == one and hash(back) == hash(one)
    assert {one: 1}[back] == 1 and one != moved
    # the distinct coefficients with their multiplicities, and their gcd
    stored = ((1, 5), (-2, 1), (3, 1), (5, 1), (-1, 1)), 1
    for copy in (one, two, moved, back, copy_module.copy(one), copy_module.deepcopy(one)):
        assert (copy._distinct, copy._gcd) == stored
    scaled = dataclasses.replace(one, a=(6, 12, -6, 6, 18, 6, 30, 6, 6))
    assert (scaled._distinct, scaled._gcd) == (((6, 5), (12, 1), (-6, 1), (18, 1), (30, 1)), 6)
    assert (pickle.loads(pickle.dumps(scaled))._gcd, scaled.n) == (6, 10**30)


def exact_s(primes, system):
    """s(p) = p N(p) / phi(p)^9 at each prime, from the exact counts."""
    return tuple(p * unit_solution_count(p, system) / float(p - 1) ** 9 for p in primes)


def test_batched_euler_factor_matches_the_scalar_calls_bit_for_bit():
    # one call over a tuple of primes, fed by the blocked pass as a series
    # feeds it or by one series_term per prime, against 1 + series_term(p)
    # at each prime as floats
    primes = tuple(p for p in arith.sieve_primes(200) if p != 3)
    for system in (ONES, MIXED):
        scalar = [(1.0 + series_term(p, system)).hex() for p in primes]
        for a_p in (localdata.series_terms(primes, system), tuple(series_term(p, system) for p in primes)):
            assert [float(x).hex() for x in euler_factor(primes, a_p, exact_s(primes, system))] == scalar


def test_batched_euler_factor_names_the_first_prime_off():
    primes = (2, 5, 7, 11, 13)
    terms = [series_term(p, MIXED) for p in primes]
    terms[2] += 1e-8
    terms[4] += 1e-8
    exact = exact_s(primes, MIXED)
    with pytest.raises(NumericIntegrityError, match=r"^s\(7\) identity violated: "):
        euler_factor(primes, tuple(terms), exact)
    terms[2] -= 1e-8
    assert euler_factor(primes[:4], tuple(terms[:4]), exact[:4]).shape == (4,)


def test_series_terms_match_series_term_bit_for_bit():
    # the blocked pass over the support to 1000 against one modulus at a
    # time, each computed first in turn, on systems with n >= 2^63 and a
    # coefficient >= 2^31 among them
    rng = np.random.default_rng(29)
    systems = [random_valid_system(rng, 1, 10**6) for _ in range(7)]
    systems += [
        CoefficientSystem.make([1, -1, 1, 1, 2, 1, -3, 1, 1], 2**64 + 3),
        CoefficientSystem.make([1, 1, -1, 1, 1, 2**31 + 11, 1, 1, -5], 10**6 + 1),
        CoefficientSystem.make([2**31 + 11, 1, -1, 1, 1, 1, 1, 7, 1], -(10**25) - 1),
    ]
    moduli = singular._support(singular.DEFINITION_ROUTE_MAX)
    for i, system in enumerate(systems):
        for blocked_first in (i % 2 == 0, i % 2 == 1):
            series_term.cache_clear()
            localdata.series_terms.cache_clear()
            if blocked_first:
                blocked = localdata.series_terms(moduli, system)
                single = tuple(series_term(q, system) for q in moduli)
            else:
                single = tuple(series_term(q, system) for q in moduli)
                blocked = localdata.series_terms(moduli, system)
            assert [x.hex() for x in blocked] == [x.hex() for x in single]


def test_series_term_over_many_moduli_holds_no_memory_per_modulus():
    # only the last few layouts are kept: from the 20th to the 40th prime
    # above 2e4, what A(p) leaves held stays flat
    primes = [p for p in arith.sieve_primes(21000) if p > 20000][:40]
    system = CoefficientSystem.make(MIXED.a, 16)
    series_term.cache_clear()
    tracemalloc.start()
    try:
        held = []
        for p in primes:
            series_term(p, system)
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert held[39] - held[19] < 1 << 20


def test_twisted_sum_at_a_prime_near_the_cap_matches_the_count():
    # q^2 >= 2^31 takes int64 indices: (p - 1)^9 + B(p) = p N(p), N(p) exact,
    # to the rounding of p - 1 summands of size (p - 1)^r, r slots with p | a_j
    p = 999983
    assert localdata._layout((p,), True).k.dtype == np.int64
    for r, system in enumerate((MIXED, CoefficientSystem.make([1, 1, 1, -2, 3, 1, 5, p, -1], 14))):
        b = principal_twisted_sum(p, system, units_only=True)
        exact = p * unit_solution_count(p, system) - (p - 1) ** 9
        tol = 1e-12 * (p - 1) ** (1 + r)
        assert abs(exact) >= (p - 1) ** r
        assert abs(b.real - exact) <= tol and abs(b.imag) <= tol


def test_layout_keeps_the_gathers_of_the_unit_slots():
    # the kept factors of the +-1 slots are the gathers they replace, byte for
    # byte; at k = 0 an all-residue layout reads entry q, which repeats entry 0
    full = localdata._layout((2, 9, 10, 97), False)
    for layout in (localdata._layout(tuple(arith.sieve_primes(1000)), True), full):
        k, q, off = layout.k, layout.q, np.repeat(layout.offs, np.diff(layout.bounds))
        assert layout.plus.tobytes() == layout.tables.take(off + k).tobytes()
        assert layout.minus.tobytes() == layout.tables.take(off + q - k).tobytes()
    for m, b0, b1 in zip(full.moduli, full.bounds, full.bounds[1:]):
        tab = principal_cubic_table(m)
        assert full.plus[b0:b1].tobytes() == tab.tobytes()
        assert full.minus[b0:b1].tobytes() == tab[-np.arange(m) % m].tobytes()


def test_twisted_sum_matches_slotwise_gathers():
    # the reference gathers the table once per slot, as the definition reads
    systems = [ONES, MIXED, CoefficientSystem.make([1, -1, 1, 8, 2, 2, 15, 30, 1], 17)]
    for q in range(2, 61):
        tab = principal_cubic_table(q)
        for units_only in (True, False):
            k = np.arange(q, dtype=np.int64)
            if units_only:
                k = k[np.gcd(k, q) == 1]
            for system in systems:
                total = unit_roots(q)[(-system.n) % q * k % q].copy()
                for aj in system.a:
                    total *= tab[aj % q * k % q]
                want = complex(total.sum())
                assert principal_twisted_sum(q, system, units_only) == want


def test_series_term_multiplicative():
    for q1, q2 in [(2, 5), (5, 7), (2, 27), (9, 10), (7, 8)]:
        for system in (ONES, MIXED):
            left = series_term(q1 * q2, system)
            right = series_term(q1, system) * series_term(q2, system)
            assert left == pytest.approx(right, abs=1e-10)


def test_telescoping_prime_power_sums():
    # partial sums of A over p^0..p^eta collapse to the scaled count mod p^eta
    for p, eta_max in [(2, 3), (3, 3), (5, 2), (7, 2)]:
        for system in (ONES, MIXED):
            for eta in range(1, eta_max + 1):
                q = p**eta
                partial = sum(series_term(p**v, system) for v in range(eta + 1))
                phi = q - q // p
                target = q * unit_solution_count(q, system) / phi**9
                assert partial == pytest.approx(target, abs=1e-8)


def test_series_term_support():
    # squares of primes other than 3 kill the term; at 3 even level 27 dies,
    # since unit cubes mod 27 fill whole cosets of 1 + 9Z
    for q in (4, 25, 49, 121, 8, 50, 27, 81):
        assert abs(series_term(q, ONES)) < 1e-12
        assert abs(series_term(q, MIXED)) < 1e-12
    assert series_term(1, ONES) == pytest.approx(1.0)
    assert abs(series_term(9, ONES)) > 1e-6


def test_euler_factor_values():
    # s(p) = 1 + A(p) from the definition route
    odd = CoefficientSystem.make([1] * 9, 23)
    even = CoefficientSystem.make([1] * 9, 14)
    assert 1.0 + series_term(2, odd) == pytest.approx(2.0)
    assert 1.0 + series_term(2, even) == pytest.approx(0.0)
    for p in (3, 5, 7, 11):
        s = 1.0 + series_term(p, odd)
        phi = float(p - 1)
        assert s == pytest.approx(p * unit_solution_count(p, odd) / phi**9, rel=1e-9)


def test_char_bound_exhaustive_small():
    for q in (2, 3, 4, 5, 7, 9, 25, 27):
        for chi in character_group(q):
            ok = char_sum_bound_ok(chi)
            assert len(ok) == q and ok.all()


def test_cube_twist_vanishing_thresholds():
    # principal cube sums C(a) mod p^t, a prime to p, vanish from level 2
    # away from 3 and from level 3 at 3, and not below
    for p, first in [(2, 2), (5, 2), (7, 2), (3, 3)]:
        for t in range(1, 7):
            q = p**t
            coprime = np.arange(q) % p != 0
            vanishes = np.abs(principal_cubic_table(q)[coprime]).max() <= 1e-7 * q
            assert vanishes == (t >= first), (p, t)


def test_local_data_bundle():
    data = local_data(9, ONES)
    assert data.q == 9
    assert data.unit_solutions == brute_count(9, ONES)
    assert data.euler_factor is None
    prime = local_data(7, ONES)
    assert prime.euler_factor == pytest.approx(1.0 + prime.series_term, rel=1e-9)


def test_local_data_reports_the_exact_term_held_to_the_definition(monkeypatch):
    # A(q) from the exact counts, checked against series_term at 1e-9
    for q in (5, 9, 54, 1729):
        exact = math.prod(prime_power_sum(p, e, ONES) for p, e in arith.factorize(q))
        assert local_data(q, ONES).series_term == exact / arith.euler_phi(q) ** 9
    definition = localdata.series_term
    monkeypatch.setattr(localdata, "series_term", lambda q, s: definition(q, s) + 1e-8)
    with pytest.raises(NumericIntegrityError, match=r"A\(1729\)"):
        local_data(1729, ONES)
    # a prime q is checked the same way, on A(q) itself
    with pytest.raises(NumericIntegrityError, match=r"^A\(997\) identity violated"):
        local_data(997, ONES)


def test_local_data_at_a_prime_checks_once(monkeypatch):
    # the definition A(q) is computed once and held to the counts by one A(q)
    # check, at a prime q as at a composite one; s(q) is 1 + that A(q)
    calls = []
    check = localdata.check_routes

    def watch(name, *args):
        calls.append(name)
        check(name, *args)

    monkeypatch.setattr(localdata, "check_routes", watch)
    term = localdata.series_term
    monkeypatch.setattr(localdata, "series_term", lambda q, s: calls.append(q) or term(q, s))
    prime = local_data(997, MIXED)
    assert calls == [997, "A"]
    assert prime.euler_factor == (1.0 + term(997, MIXED))
    calls.clear()
    local_data(1729, MIXED)
    assert calls == [1729, "A"]


def test_local_data_at_a_prime_counts_once():
    # local_data counts N(q) once; its exact A(q) at a prime reads B(q) from prime_sums
    unit_solution_count.cache_clear()
    local_data(997, MIXED)
    info = unit_solution_count.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_local_data_at_a_prime_evaluates_the_closed_form_once(monkeypatch):
    # the exact A(q) and N(q) at a prime q share one closed-form B(q)
    calls = []
    closed = localdata.prime_sums
    monkeypatch.setattr(localdata, "prime_sums", lambda ps, s: calls.append(tuple(ps)) or closed(ps, s))
    unit_solution_count.cache_clear()
    local_data(997, MIXED)
    assert calls == [(997,)]


def test_local_data_at_a_composite_evaluates_each_closed_form_once(monkeypatch):
    # N(1729) reads the N(7), N(13) and N(19) that the exact A(1729) counted;
    # a prime dividing every a_j is still refused as N(q)'s
    calls = []
    closed = localdata.prime_sums
    monkeypatch.setattr(localdata, "prime_sums", lambda ps, s: calls.append(tuple(ps)) or closed(ps, s))
    unit_solution_count.cache_clear()
    local_data(1729, MIXED)
    assert calls == [(7,), (13,), (19,)]
    shared = CoefficientSystem([13 * a for a in MIXED.a], MIXED.n)
    with pytest.raises(DomainError, match=r"^N\(1729\) needs some coefficient prime to 13,"):
        unit_solution_count(1729, shared)


def test_reference_count_refuses_a_large_modulus_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated")

    monkeypatch.setattr(np, "bincount", refuse)
    monkeypatch.setattr(np, "convolve", refuse)
    q = 2**15  # above EXACT_COUNT_CAP, and 2 divides every coefficient
    assert q > localdata.EXACT_COUNT_CAP
    even = CoefficientSystem.make([2, 4, -2, 2, 6, 2, 2, 2, 2], 1)
    with pytest.raises(ResourceLimitError):
        localdata._count_by_convolution(q, even)
    # below the cap, but a half of the int64 fold could reach phi^5 >= 2^63
    p = 7001
    assert p < localdata.EXACT_COUNT_CAP and arith.is_prime(p) and (p - 1) ** 5 >= 2**63
    with pytest.raises(ResourceLimitError):
        localdata._count_by_convolution(p, MIXED)
    # 2 divides every coefficient, which the exact count refuses
    with pytest.raises(DomainError):
        unit_solution_count(q, even)
    # a prime above the cap is counted in closed form; the local report still refuses it
    p = 20011
    assert p > localdata.EXACT_COUNT_CAP and arith.is_prime(p)
    assert unit_solution_count(p, MIXED) == localdata._prime_count(p, MIXED)
    with pytest.raises(ResourceLimitError):
        local_data(p, MIXED)
