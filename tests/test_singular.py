import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from ninecubes import arith, convolve, localdata, singular
from ninecubes.errors import DomainError, NumericIntegrityError, ResourceLimitError
from ninecubes.localdata import CoefficientSystem, prime_power_sum, series_term
from ninecubes.singular import (
    integral_support,
    main_term,
    singular_integral,
    singular_series_euler,
    singular_series_partial,
)

ONES = CoefficientSystem.make([1] * 9, 23)
MIXED = CoefficientSystem.make([1, 1, 1, -2, 3, 1, 5, 1, -1], 14)


def _on_support(q):
    # A(q) may be nonzero only at q = 3^e m, e <= 3, m squarefree and prime to 3
    return all(e <= (3 if p == 3 else 1) for p, e in arith.factorize(q))


def _terms(system, x):
    return dict(singular_series_partial(system, x).terms)


def test_series_support_classification():
    moduli = list(_terms(ONES, 2000))
    assert moduli == [q for q in range(1, 2001) if _on_support(q)]
    assert {1, 2, 6, 27, 54, 1001, 1998} <= set(moduli)  # 1998 = 2 * 27 * 37
    assert not {4, 12, 25, 81, 162, 1250} & set(moduli)  # 162 = 2 * 81
    with pytest.raises(DomainError):
        singular_series_partial(ONES, 0)


def test_series_terms_agree_with_definition():
    # the multiplicative route must reproduce the definition for q <= 1000
    terms = _terms(ONES, 1000)
    moduli = [q for q in range(1, 1001) if _on_support(q)]
    rng = np.random.default_rng(511)
    sample = rng.choice(moduli, size=60, replace=False)
    for q in sorted(int(v) for v in sample):
        direct = series_term(q, ONES)
        split = 1.0
        for p, e in arith.factorize(q):
            split *= series_term(p**e, ONES)
        assert terms[q] == pytest.approx(direct, abs=1e-10)
        assert direct == pytest.approx(split, abs=1e-10)
    assert 4 * 9 not in terms and series_term(4 * 9, ONES) == pytest.approx(0.0, abs=1e-12)


def test_partial_sum_known_values():
    rep = singular_series_partial(ONES, 1000)
    assert rep.cutoff == 1000
    assert rep.value == pytest.approx(0.636968, abs=5e-6)
    assert rep.terms[0] == (1, 1.0)
    assert rep.terms[1][0] == 2 and rep.terms[1][1] == pytest.approx(1.0)
    assert rep.tail_estimate >= 0.0
    small = singular_series_partial(ONES, 10)
    assert small.value == pytest.approx(1.140633, abs=5e-6)


def test_partial_tracks_euler_product():
    rep = singular_series_partial(ONES, 1000)
    gap = abs(rep.value - rep.euler_value)
    assert gap <= max(0.01 * abs(rep.euler_value), 1e-6)
    # the two routes approach the same limit from the 10^4 runs
    assert rep.euler_value == pytest.approx(0.6355906, abs=5e-6)


def test_fresh_series_reads_the_layout_of_the_last_one():
    # a series on a new system recomputes the definition A(p) at its Euler
    # primes, over the layout the previous series left cached
    localdata.series_terms.cache_clear()
    for n in (26, 28):
        system = CoefficientSystem.make([1, 1, 1, -1, 1, 1, 1, 2, 3], n)
        before = localdata._layout.cache_info()
        singular_series_partial(system, 1000)
        after = localdata._layout.cache_info()
    assert after.misses == before.misses and after.hits > before.hits


def _layouts_read(monkeypatch):
    """The moduli of each layout read from here on, all caches of terms and
    layouts cleared, so the first read of each builds it."""
    series_term.cache_clear()
    localdata.series_terms.cache_clear()
    localdata._layout.cache_clear()
    read = []
    layout = localdata._layout
    monkeypatch.setattr(localdata, "_layout", lambda qs, units: read.append(qs) or layout(qs, units))
    return read


# the Euler factor at 3 reads A(3), A(9) and A(27) at one modulus each
EULER_AT_3 = {(3,), (9,), (27,)}


def test_a_wrapped_principal_table_caches_what_the_plain_one_does(monkeypatch):
    # a tracing wrapper, as bench/spans.py installs, leaves a series at 1000
    # filling the C_{chi_0} cache exactly as it does unwrapped
    table = localdata.principal_cubic_table
    system = CoefficientSystem.make([1, 1, 1, -1, 1, 1, 1, 2, 3], 32)

    def fills():
        for cache in (series_term, localdata.series_terms, localdata._layout, table):
            cache.cache_clear()
        singular_series_partial(system, 1000)
        return table.cache_info()

    plain = fills()
    wrapped = functools.wraps(table)(lambda q: table(q))
    monkeypatch.setattr(localdata, "principal_cubic_table", wrapped)
    assert fills() == plain


def _euler_primes(x):
    return tuple(p for p in arith.sieve_primes(min(x, singular.DEFINITION_ROUTE_MAX)) if p != 3)


def test_series_at_30_lays_out_its_own_support_only(monkeypatch):
    # the definition pass lays out the Euler primes to 30 and nothing else
    read = _layouts_read(monkeypatch)
    singular_series_partial(CoefficientSystem.make([1, 1, 1, -1, 1, 1, 1, 2, 3], 30), 30)
    assert set(read) == {_euler_primes(30)} | EULER_AT_3


def _fresh_series(system, x):
    """Reprs of every term and the Euler value, with the per-system caches
    cleared so that each A(q) and N(q) is recomputed from the per-modulus data."""
    series_term.cache_clear()
    localdata.series_terms.cache_clear()
    localdata.unit_solution_count.cache_clear()
    singular._terms.cache_clear()
    rep = singular_series_partial(system, x)
    return repr(rep.terms), repr(rep.euler_value)


def test_series_bits_do_not_depend_on_the_modulus_caches():
    # the README series and series-3000 in both orders, then after other
    # systems warmed the caches keyed by the modulus alone, against each
    # computed with those caches cleared
    modulus_caches = (
        arith.factorize,
        localdata._period_algebra,
        localdata._layout,
        singular._plan,
    )

    def clear():
        for cache in modulus_caches:
            cache.cache_clear()

    cases = [(ONES, 1000), (MIXED, 3000)]
    want = {}
    for case in cases:
        clear()
        want[case] = _fresh_series(*case)
    for order in (cases, cases[::-1]):
        clear()
        assert [_fresh_series(*case) for case in order] == [want[case] for case in order]
    for n in (26, 101):
        _fresh_series(CoefficientSystem.make([1, 1, 1, -1, 1, 1, 1, 2, 3], n), 3000)
    assert [_fresh_series(*case) for case in cases] == [want[case] for case in cases]


def _exact_term(q, system):
    """A(q) as a Fraction: the product over q's prime powers of
    g(p^e) - g(p^(e-1)), g(d) = d N(d) / phi(d)^9 with N(d) exact."""

    def g(d):
        return Fraction(d * localdata.unit_solution_count(d, system), arith.euler_phi(d) ** 9)

    return math.prod((g(p**e) - g(p ** (e - 1)) for p, e in arith.factorize(q)), start=Fraction(1))


@pytest.mark.parametrize("x", [1022, 3000, singular.SERIES_X_CAP])
def test_every_term_is_the_correctly_rounded_exact_value(x):
    # every term to 3000 equals the float of the exact product, and the sums
    # the generator fsums; at 1022 both tails start on the support, at
    # 255 = 3 * 5 * 17 and 511 = 7 * 73
    big_n = CoefficientSystem.make(MIXED.a, 10**29)
    for system in (ONES, MIXED, big_n):
        rep = singular_series_partial(system, x)
        for q, t in rep.terms:
            if q <= 3000:
                assert t.hex() == float(_exact_term(q, system)).hex(), (system.n, q)
        assert rep.value == math.fsum(t for _, t in rep.terms)
        tail = 0.0
        for x0 in (x // 4, x // 2):
            seen = math.fsum(t for q, t in rep.terms if q > x0)
            tail = max(tail, abs(seen) * x0 / x)
        assert rep.tail_estimate == tail


def test_an_exact_zero_term_is_reported_as_zero():
    # A(54) of the README system is 0: the definition route gave -9.39e-147
    assert _exact_term(54, ONES) == 0
    assert _terms(ONES, 1000)[54] == 0.0


def test_every_series_call_checks_s_p_at_each_prime_to_the_definition_cutoff(monkeypatch):
    # the s(p) check runs on every call, the terms cached or not, as one
    # euler_factor call over the tuple of those primes
    seen = []
    check = singular.euler_factor
    monkeypatch.setattr(singular, "euler_factor", lambda p, *a: seen.append(p) or check(p, *a))
    for x in (2, 300, 3000, 3000):
        seen.clear()
        singular_series_partial(MIXED, x)
        assert seen == [_euler_primes(max(x, 3))], x


def test_a_definition_term_off_the_exact_one_is_refused(monkeypatch):
    # one definition A(p) of the blocked pass, or A(27), moved by 1e-8
    blocked, single = singular.series_terms, singular.series_term

    def moved(qs, system):
        terms = list(blocked(qs, system))
        terms[qs.index(997)] += 1e-8
        return tuple(terms)

    singular_series_partial(MIXED, 1000)
    monkeypatch.setattr(singular, "series_terms", moved)
    with pytest.raises(NumericIntegrityError, match=r"s\(997\)"):
        singular_series_partial(MIXED, 1000)
    monkeypatch.setattr(singular, "series_terms", blocked)
    monkeypatch.setattr(singular, "series_term", lambda q, s: single(q, s) + 1e-8 * (q == 27))
    with pytest.raises(NumericIntegrityError, match=r"A\(27\)"):
        singular_series_partial(MIXED, 1000)


def test_repeated_series_takes_the_3_adic_terms_from_the_cache(monkeypatch):
    # the exact A(3), A(9), A(27) are kept with the cached terms, so a
    # repeated series computes no prime-power sum; with the term cache
    # cleared, the same series computes them again
    singular_series_partial(MIXED, 1000)
    calls = []
    fn = localdata.prime_power_sum
    for module in (singular, localdata):
        monkeypatch.setattr(module, "prime_power_sum", lambda *a: calls.append(a[:2]) or fn(*a))
    singular_series_partial(MIXED, 1000)
    assert calls == []
    singular._terms.cache_clear()
    singular_series_partial(MIXED, 1000)
    assert {(3, 1), (3, 2), (3, 3)} <= set(calls)


def test_repeated_series_does_no_per_modulus_work(monkeypatch):
    # what depends on the cutoff alone is planned once: a second series at
    # 3000 on the same system factorizes nothing and sieves no support
    singular_series_partial(MIXED, 3000)
    calls = []
    for module, name in ((arith, "factorize"), (singular, "_support")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    singular_series_partial(MIXED, 3000)
    assert calls == []


def test_series_refuses_a_prime_dividing_every_coefficient():
    # the library refuses a shared prime on its own, before any term is
    # summed, at the first modulus that reaches it: 2 before the 3-adic
    # terms, and those before every prime past 3
    message = "N({0}) needs some coefficient prime to {0}, which divides every a_j"
    for a, p in ((5, 5), (6, 2), (15, 3), (1001, 7)):
        system = CoefficientSystem.make((a,) * 9, 7)
        for route in (singular_series_partial, singular_series_euler):
            with pytest.raises(DomainError) as exc:
                route(system, 100)
            assert str(exc.value) == message.format(p)


def test_fresh_series_counts_only_at_powers_of_3(monkeypatch):
    # a fresh series reads every B(p), p != 3, from one closed-form pass, so
    # it counts N(q) only for the 3-adic terms; a second fresh system finds
    # the period algebra of every prime to 3000 cached
    calls = []
    count = localdata.unit_solution_count
    monkeypatch.setattr(localdata, "unit_solution_count", lambda q, s: calls.append(q) or count(q, s))
    singular_series_partial(CoefficientSystem.make([1, 1, 1, -1, 7, 1, 2, 1, -1], 4101), 3000)
    assert set(calls) == {3, 9, 27}
    misses = localdata._period_algebra.cache_info().misses
    singular_series_partial(CoefficientSystem.make([1, 1, 1, -1, 7, 1, 2, 1, -1], 4103), 3000)
    assert localdata._period_algebra.cache_info().misses == misses


def test_series_rejects_a_non_primary_prime(monkeypatch):
    # -pi is not primary: the series refuses its non-integral cyclotomic
    # numbers.  The period algebras and the terms run on empty caches of
    # their own, so the shared ones neither serve the true values nor keep these.
    for module, name in ((localdata, "_period_algebra"), (singular, "_terms")):
        monkeypatch.setattr(module, name, functools.lru_cache(getattr(module, name).__wrapped__))
    primary = localdata._primary_prime
    monkeypatch.setattr(localdata, "_primary_prime", lambda p: tuple(-c for c in primary(p)))
    with pytest.raises(NumericIntegrityError, match="cyclotomic number"):
        singular_series_partial(MIXED, 100)


def test_euler_factor_check_at_every_prime_above_the_definition_cutoff():
    # above DEFINITION_ROUTE_MAX the Euler product takes s(p) = 1 + A(p)
    # from the exact count; the check of the definition value against that
    # count runs here, over the same primes
    cutoff = singular.DEFINITION_ROUTE_MAX
    primes = [p for p in arith.sieve_primes(singular.SERIES_X_CAP).tolist() if p > cutoff]
    assert len(primes) == 1061
    for p in primes:
        assert 1.0 + series_term(p, MIXED) == pytest.approx(
            1.0 + prime_power_sum(p, 1, MIXED) / (p - 1) ** 9, rel=1e-12
        )


def test_series_above_the_cutoff_lays_out_no_modulus_past_it(monkeypatch):
    # a series to 3000 lays out the Euler primes to DEFINITION_ROUTE_MAX
    read = _layouts_read(monkeypatch)
    rep = singular_series_partial(MIXED, 3000)
    assert rep.euler_pmax == 3000
    assert set(read) == {_euler_primes(3000)} | EULER_AT_3


def test_series_above_the_cutoff_matches_the_definition():
    # the exact prime-power products against the definition A(q) above the cutoff
    rng = np.random.default_rng(512)
    moduli = [q for q in range(1001, 4001) if _on_support(q)]
    terms = {system: _terms(system, 4000) for system in (ONES, MIXED)}
    for q in sorted(int(v) for v in rng.choice(moduli, size=20, replace=False)):
        for system in (ONES, MIXED):
            assert terms[system][q] == pytest.approx(series_term(q, system), abs=1e-12)


def test_euler_product_positive_and_even_weight():
    # the factor at 2 doubles odd-parity mass and kills even parity
    val_odd = singular_series_euler(ONES, 101)
    assert val_odd > 0
    even = CoefficientSystem.make([1] * 9, 14)
    assert singular_series_euler(even, 101) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ResourceLimitError):
        singular_series_euler(ONES, singular.SERIES_X_CAP + 1)


def test_integral_support_window_split():
    # splitting the window partitions the support exactly
    for aj in (1, 2, -3):
        whole = integral_support(aj, 10, 1000)
        left = integral_support(aj, 10, 100)
        right = integral_support(aj, 100, 1000)
        for idx in range(whole.lo, whole.hi + 1):
            assert whole.coefficient(idx) == pytest.approx(
                left.coefficient(idx) + right.coefficient(idx), abs=1e-15
            )
        total = left.values.sum() + right.values.sum()
        assert whole.values.sum() == pytest.approx(total, rel=1e-12)


def test_integral_support_cap_refuses_before_allocating():
    # a span of 1e15 cells must be refused by the cap, not by numpy's allocator
    with pytest.raises(ResourceLimitError):
        integral_support(1, 0, 10**15)
    with pytest.raises(ResourceLimitError):
        integral_support(-7, 0, 10**15)


def test_integral_against_brute_force():
    # tiny window: enumerate integer tuples directly
    system = CoefficientSystem.make([1, 1, 1, 1, -1, 1, 1, 1, 1], 30)
    M, N = 2, 6  # m_j in {3, 4, 5, 6}, negated slot in {-6..-3}
    rep = singular_integral(system, M, N)
    choices = range(3, 7)
    total = 0.0
    count = 0
    for tup in __import__("itertools").product(choices, repeat=8):
        m5 = sum(tup[:4]) + sum(tup[4:]) - system.n  # solve for the negated slot
        if 3 <= m5 <= 6:
            count += 1
            total += math.prod(float(m) ** (-2.0 / 3.0) for m in tup) * float(m5) ** (
                -2.0 / 3.0
            )
    assert rep.solution_count == pytest.approx(count)
    assert rep.value == pytest.approx(total, rel=1e-9)


def test_tuple_count_is_the_exact_integer():
    # (1, ..., 1) over the window (10, 1000]: each m_j in [11, 1000]; a
    # target near either end pins every m_j to a short range
    def brute(n, lo, hi):
        lo, hi = max(lo, n - 8 * hi), min(hi, n - 8 * lo)
        ways = {0: 1}
        for _ in range(9):
            step = {}
            for s, w in ways.items():
                for m in range(lo, hi + 1):
                    step[s + m] = step.get(s + m, 0) + w
            ways = step
        return ways.get(n, 0)

    for n, want in ((109, math.comb(18, 8)), (8999, 9)):
        rep = singular_integral(CoefficientSystem.make([1] * 9, n), 10, 1000)
        assert brute(n, 11, 1000) == want
        assert rep.solution_count == float(want)


def test_integral_zero_iff_no_lattice_point():
    # unreachable target: window pins every term near N, sum too small
    system = CoefficientSystem.make([1] * 9, 10**6)
    rep = singular_integral(system, 10, 100)
    assert rep.value == 0.0
    assert rep.solution_count == 0.0
    hit = singular_integral(CoefficientSystem.make([1] * 9, 30), 2, 10)
    assert hit.value > 0.0 and hit.solution_count > 0.0


def test_negative_read_clamped_within_bound(monkeypatch):
    # a read below zero is rounding when it lies within the read's bound:
    # value, normalized value and count all come out exactly 0
    monkeypatch.setattr(convolve, "convolve_read", lambda parts, target: (-1e-12, 1e-10))
    rep = singular_integral(ONES, 2, 10)
    assert (rep.value, rep.normalized, rep.solution_count) == (0.0, 0.0, 0.0)
    monkeypatch.setattr(convolve, "convolve_read", lambda parts, target: (-1.0, 1e-10))
    with pytest.raises(NumericIntegrityError):
        singular_integral(ONES, 2, 10)


def test_integral_normalization_stable():
    # normalized J barely moves when the window scales
    vals = []
    for N in (500, 1000, 2000, 4000):
        system = CoefficientSystem.make([1] * 9, 5 * N)
        rep = singular_integral(system, N // 10, N)
        assert rep.normalized > 0
        vals.append(rep.normalized)
    assert max(vals) / min(vals) < 2.0


def test_integral_guards():
    with pytest.raises(DomainError):
        singular_integral(ONES, 100, 50)
    with pytest.raises(ResourceLimitError):
        singular_integral(ONES, 10, singular.INTEGRAL_N_CAP + 1)


def test_main_term_composition():
    system = CoefficientSystem.make([1] * 9, 2001)
    got = main_term(system, 50, 500)
    series = singular_series_partial(system, singular.DEFINITION_ROUTE_MAX).value
    integral = singular_integral(system, 50, 500).value
    assert got == pytest.approx(singular.NORMALIZER * series * integral, rel=1e-12)
    assert got > 0
