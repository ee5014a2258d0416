import numpy as np
import pytest

from ninecubes.errors import DomainError, ResourceLimitError
from ninecubes.localdata import CoefficientSystem
from ninecubes.search import (
    SearchExhausted,
    SolutionRecord,
    find_solution,
    solution_exists,
    threshold_scan,
)


def brute_best(system, prime_bound, window=None):
    """Reference search: suffix reachability plus greedy lex completion.

    Scans candidate values of max p_j in ascending order; the first cap
    whose reachable-sum set contains n is the minimal max, and the
    left-to-right greedy over smallest primes yields the lex-least tuple.
    """
    primes = [p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31) if p <= prime_bound]

    def options(aj, cap):
        opts = [p for p in primes if p <= cap]
        if window is not None:
            lo, hi = window
            opts = [p for p in opts if lo < abs(aj) * p**3 <= hi]
        return opts

    for cap in primes:
        reach = [None] * 10
        reach[9] = np.zeros(1, dtype=np.int64)
        empty = False
        for j in range(8, -1, -1):
            vals = np.array(
                sorted({system.a[j] * p**3 for p in options(system.a[j], cap)}),
                dtype=np.int64,
            )
            if len(vals) == 0:
                empty = True
                break
            reach[j] = np.unique(reach[j + 1][:, None] + vals[None, :])

        def hit(arr, value):
            i = np.searchsorted(arr, value)
            return bool(i < len(arr) and arr[i] == value)

        if empty or not hit(reach[0], system.n):
            continue
        tup = []
        rem = system.n
        for j in range(9):
            for p in options(system.a[j], cap):
                v = system.a[j] * p**3
                if hit(reach[j + 1], rem - v):
                    tup.append(p)
                    rem -= v
                    break
            else:
                raise AssertionError("reachable sum lost during completion")
        assert rem == 0
        return (max(tup), tuple(tup))
    return None


def test_all_twos_solution():
    system = CoefficientSystem.make([1] * 9, 72)
    rec = find_solution(system)
    assert isinstance(rec, SolutionRecord)
    assert rec.primes == (2,) * 9
    assert rec.max_p == 2
    assert rec.n_cuberoot == pytest.approx(72 ** (1 / 3))
    assert rec.found_by.startswith("meet_in_the_middle")


def test_matches_brute_force():
    rng = np.random.default_rng(811)
    checked_hits = 0
    for _ in range(25):
        coeffs = [int(rng.integers(1, 4)) * int(rng.choice([-1, 1])) for _ in range(9)]
        n = int(rng.integers(-200, 2000))
        system = CoefficientSystem.make(coeffs, n)
        want = brute_best(system, 19)
        got = find_solution(system, prime_bound=20)
        if want is None:
            assert isinstance(got, SearchExhausted)
            assert got.prime_bound == 20
        else:
            assert isinstance(got, SolutionRecord)
            assert (got.max_p, got.primes) == want
            checked_hits += 1
    assert checked_hits >= 3


def test_windowed_brute_force():
    rng = np.random.default_rng(812)
    window = (27, 7000)
    for _ in range(10):
        coeffs = [1, 1, 1, 1, 1, 1, 1, 1, int(rng.choice([-1, 1]))]
        n = int(rng.integers(100, 3000))
        system = CoefficientSystem.make(coeffs, n)
        want = brute_best(system, 19, window)
        got = find_solution(system, prime_bound=19, window=window)
        if want is None:
            assert isinstance(got, SearchExhausted)
        else:
            assert isinstance(got, SolutionRecord)
            assert (got.max_p, got.primes) == want


def test_ladder_prefers_smallest_max():
    # target built from a 31-cube, yet the true optimum tops out at 29:
    # the staged deepening must not stop at the first bound that works
    n = 8 * 8 + 31**3
    system = CoefficientSystem.make([1] * 9, n)
    rec = find_solution(system)
    assert isinstance(rec, SolutionRecord)
    assert (rec.max_p, rec.primes) == brute_best(system, 31)
    assert rec.max_p == 29


def test_lex_refinement_on_ties():
    # 1729 = 1^3 + 12^3 = 9^3 + 10^3 has prime analogues with ties:
    # pick any n with several same-max solutions and check lex order
    system = CoefficientSystem.make([1] * 9, 8 * 27 + 125)
    rec = find_solution(system)
    assert isinstance(rec, SolutionRecord)
    want = brute_best(system, rec.max_p)
    assert (rec.max_p, rec.primes) == want


def test_exhaustion_report():
    system = CoefficientSystem.make([1] * 9, 3)  # below the least window sum
    out = find_solution(system, prime_bound=50)
    assert isinstance(out, SearchExhausted)
    assert out.prime_bound == 50
    assert out.states_visited >= 0
    assert out.window is None


def test_exists_agrees_with_search():
    rng = np.random.default_rng(813)
    hits = 0
    for _ in range(30):
        coeffs = [int(rng.integers(1, 3)) * int(rng.choice([-1, 1])) for _ in range(9)]
        n = int(rng.integers(-500, 1500))
        system = CoefficientSystem.make(coeffs, n)
        found = isinstance(find_solution(system, prime_bound=20), SolutionRecord)
        assert solution_exists(system, prime_bound=20) == found
        hits += found
    assert hits >= 3


def test_prime_bound_guards():
    system = CoefficientSystem.make([1] * 9, 72)
    with pytest.raises(DomainError):
        find_solution(system, prime_bound=1)
    with pytest.raises(DomainError):
        find_solution(system, prime_bound=10**5)
    huge = CoefficientSystem.make([10**15] * 8 + [1], 72)
    with pytest.raises(ResourceLimitError):
        find_solution(huge, prime_bound=10**4)


def test_threshold_rows():
    rows = threshold_scan(
        [[1] * 9, [1] * 8 + [3]],
        range(1, 200),
        prime_bound=100,
    )
    assert len(rows) == 2
    ones = rows[0]
    assert ones.coeffs == (1,) * 9
    assert ones.n == 72 and ones.found and ones.max_p == 2
    assert ones.n_cuberoot == pytest.approx(72 ** (1 / 3))
    assert ones.D == 2
    scaled = rows[1]
    assert scaled.n == 88 and scaled.found  # eight 2s and 3 * 2^3
    assert scaled.D == 3


def test_threshold_scan_unreachable_range():
    rows = threshold_scan([[1] * 9], range(1, 72), prime_bound=100)
    assert rows[0].found is False
    assert rows[0].n is None and rows[0].max_p is None


def test_threshold_scan_guards():
    with pytest.raises(DomainError):
        threshold_scan([[1] * 8 + [-1]], range(1, 10))
    with pytest.raises(DomainError):
        threshold_scan([[1] * 9], [])
