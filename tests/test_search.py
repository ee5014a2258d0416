import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ninecubes import arith, search
from ninecubes.errors import DomainError, NumericIntegrityError, ResourceLimitError
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


def test_window_past_the_sieve_cap_searches_the_bound():
    # N = 10^30 asks the window's own sieve for primes up to 10^10, past
    # SIEVE_CAP; only the bound's primes can enter a solution, so the
    # search sieves to the bound and matches the reference search
    rng = np.random.default_rng(30)
    window = (10, 10**30)
    for _ in range(6):
        coeffs = [1, 1, 1, 1, 1, 1, 1, int(rng.choice([1, 2])), int(rng.choice([-1, 1]))]
        primes = [int(p) for p in rng.choice([3, 5, 7, 11, 13, 17, 19], size=9)]
        system = CoefficientSystem.make(coeffs, sum(a * p**3 for a, p in zip(coeffs, primes)))
        got = find_solution(system, prime_bound=19, window=window)
        assert isinstance(got, SolutionRecord)
        assert (got.max_p, got.primes) == brute_best(system, 19, window)
        assert solution_exists(system, prime_bound=19, window=window)


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
    k = len(arith.sieve_primes(50))
    assert out.states_visited == k**4 + k**5
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
    with pytest.raises(ResourceLimitError):
        find_solution(system, prime_bound=10**5)
    with pytest.raises(ResourceLimitError):
        solution_exists(system, prime_bound=10**5)
    with pytest.raises(ResourceLimitError):  # no n below 50 is reachable
        threshold_scan([[1] * 9], range(1, 50), prime_bound=10**5)
    huge = CoefficientSystem.make([10**15] * 8 + [1], 72)
    with pytest.raises(ResourceLimitError):
        find_solution(huge, prime_bound=10**4)


@pytest.mark.parametrize("sieved", [0, 100])
def test_prime_bound_must_be_integral_whatever_the_sieve(monkeypatch, sieved):
    # a fractional bound was truncated by a sieve cached past it and raised
    # TypeError in a fresh process: now refused either way
    monkeypatch.setattr(arith, "_sieve", (0, []))
    arith.sieve_primes(sieved)
    system = CoefficientSystem.make([1] * 9, 23)
    calls = [
        lambda: find_solution(system, 30.5),
        lambda: solution_exists(system, 30.5),
        lambda: threshold_scan([[1] * 9], range(1, 100), 30.5),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="expected an integer, got 30.5"):
            call()


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


@pytest.mark.parametrize(
    "grid, n_range, message",
    [
        ([[1] * 8], range(1, 10), "expected 9 coefficients, got 8"),  # no reachable n
        ([[1] * 9, [1] * 8], range(1, 200), "expected 9 coefficients, got 8"),
        ([[1.5] + [1] * 8], range(1, 200), "expected an integer, got 1.5"),
        ([[1] * 9], [72.5], "expected an integer, got 72.5"),
    ],
)
def test_threshold_scan_refuses_malformed_input_before_any_bitmap(monkeypatch, grid, n_range, message):
    # a row the CoefficientSystem constructor refuses is refused whatever the
    # range holds, and no value is truncated to an integer
    def refuse(*args, **kwargs):
        raise AssertionError("built a bitmap before refusing the input")

    monkeypatch.setattr(search, "_shift_or", refuse)
    with pytest.raises(DomainError, match=message):
        threshold_scan(grid, n_range)


def test_threshold_scan_refuses_oversized_range_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the cap check")

    monkeypatch.setattr(np, "zeros", refuse)
    monkeypatch.setattr(np, "fromiter", refuse)
    with pytest.raises(ResourceLimitError):
        threshold_scan([[1] * 9], range(1, 10**12))
    with pytest.raises(ResourceLimitError):
        threshold_scan([[1] * 9], [5, search.THRESHOLD_N_CAP + 1])


def small_slots(coeffs, prime_bound, window=None):
    slots = []
    for aj in coeffs:
        ps = [p for p in (2, 3, 5, 7, 11, 13) if p <= prime_bound]
        if window is not None:
            ps = [p for p in ps if window[0] < abs(aj) * p**3 <= window[1]]
        slots.append(ps)
    return slots


@functools.lru_cache(maxsize=4)
def least_max_by_sum(coeffs, prime_bound, window):
    """Slot-by-slot dict of sum -> least max prime over all nine slots."""
    least = {0: 0}
    for aj, ps in zip(coeffs, small_slots(coeffs, prime_bound, window)):
        nxt = {}
        for s, m in least.items():
            for p in ps:
                t, mp = s + aj * p**3, max(m, p)
                if nxt.get(t, mp + 1) > mp:
                    nxt[t] = mp
        least = nxt
    return least


def dict_oracle(system, prime_bound, window=None):
    """Library-free search: (least max prime, lex-least tuple) or None.

    A slot-by-slot dict of sum -> least max prime gives the optimum; the
    greedy over suffix sets of sums with primes <= that max gives the tuple.
    """
    slots = small_slots(system.a, prime_bound, window)
    least = least_max_by_sum(system.a, prime_bound, window)
    if system.n not in least:
        return None
    cap = least[system.n]
    capped = [[p for p in ps if p <= cap] for ps in slots]
    suffix = [{0}]  # suffix[0] ends up as the sums over slots j+1..8
    for j in range(8, 0, -1):
        suffix.insert(0, {s + system.a[j] * p**3 for s in suffix[0] for p in capped[j]})
    suffix.append({0})
    rest, chosen = system.n, []
    for j in range(9):
        p = next(p for p in capped[j] if rest - system.a[j] * p**3 in suffix[j])
        chosen.append(p)
        rest -= system.a[j] * p**3
    return cap, tuple(chosen)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_search_matches_dict_oracle(data):
    coeffs = data.draw(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3, 5]), min_size=9, max_size=9))
    bound = data.draw(st.integers(2, 13))
    window = None
    if data.draw(st.booleans()):
        M = data.draw(st.integers(1, 150))
        window = (M, M + data.draw(st.integers(100, 12000)))
    slots = small_slots(coeffs, bound, window)
    if all(slots) and data.draw(st.booleans()):
        n = sum(a * data.draw(st.sampled_from(ps)) ** 3 for a, ps in zip(coeffs, slots))
    else:
        n = data.draw(st.integers(-30000, 60000))
    system = CoefficientSystem.make(coeffs, n)
    want = dict_oracle(system, bound, window)
    got = find_solution(system, prime_bound=bound, window=window)
    assert solution_exists(system, prime_bound=bound, window=window) == (want is not None)
    if want is None:
        assert isinstance(got, SearchExhausted)
        return
    assert isinstance(got, SolutionRecord)
    assert (got.max_p, got.primes, got.found_by) == (*want, "meet_in_the_middle+lex")


def edge_targets(coeffs, prime_bound, window=None):
    """Targets where the pruning windows are tight: the least and greatest
    attainable sums, one past each, and each moved one cube step inwards
    by a single slot, with the residuals one off either side of that."""
    cubes = [sorted(a * p**3 for p in ps) for a, ps in zip(coeffs, small_slots(coeffs, prime_bound, window))]
    lo, hi = sum(c[0] for c in cubes), sum(c[-1] for c in cubes)
    targets = {lo - 1, lo, hi, hi + 1}
    for c in cubes:
        if len(c) > 1:
            targets |= {lo + c[1] - c[0] + d for d in (-1, 0, 1)}
            targets |= {hi - c[-1] + c[-2] + d for d in (-1, 0, 1)}
    return sorted(targets)


@pytest.mark.parametrize(
    "coeffs, prime_bound, window",
    [
        ((1, -2, 3, 1, -1, 2, 1, -3, 5), 11, None),
        ((1, -1, 2, 1, 1, -1, 2, 1, -3), 13, None),  # slots 5-8 reuse the index
        ((1,) * 8 + (-1,), 13, (27, 7000)),
        ((2, -1, 1, 3, -2, 1, 1, -1, 1), 13, (10, 3000)),
    ],
)
def test_edge_targets_match_oracles(coeffs, prime_bound, window):
    hits = 0
    for n in edge_targets(coeffs, prime_bound, window):
        system = CoefficientSystem.make(coeffs, n)
        want = dict_oracle(system, prime_bound, window)
        got = find_solution(system, prime_bound=prime_bound, window=window)
        assert solution_exists(system, prime_bound=prime_bound, window=window) == (want is not None)
        if want is None:
            assert isinstance(got, SearchExhausted)
            continue
        assert (got.max_p, got.primes, got.found_by) == (*want, "meet_in_the_middle+lex")
        assert (got.max_p, got.primes) == brute_best(system, prime_bound, window)
        hits += 1
    assert hits >= 2


@pytest.mark.parametrize("coeffs", [(100,) * 4 + (1,) * 5, (1,) * 4 + (100,) * 4 + (1,)])
def test_empty_half_is_exhausted(coeffs):
    # n lies inside the nine slots' range, but the window of the 100-weight
    # half falls in a gap between its sums 100 * (four cubes of 2, 3, 5, 7)
    system = CoefficientSystem.make(coeffs, 125000)
    slots = [np.asarray(ps, dtype=np.int64) for ps in small_slots(coeffs, 8)]
    cubes = [a * ps**3 for a, ps in zip(coeffs, slots)]
    lo, hi = search._reach(system.n, cubes)[0]
    assert lo <= 0 <= hi
    heavy = 0 if coeffs[0] == 100 else 4
    order = cubes[heavy : heavy + 4] + cubes[4 - heavy : 8 - heavy] + cubes[8:]
    sums, _ = search._least_keys(slots[heavy : heavy + 4], order[:4], search._reach(system.n, order), lex=False)
    assert len(sums) == 0
    assert dict_oracle(system, 8) is None and brute_best(system, 8) is None
    assert not solution_exists(system, prime_bound=8)
    got = find_solution(system, prime_bound=8)
    assert isinstance(got, SearchExhausted) and got.states_visited == 4**4 + 4**5


def windows_between(cubes, lo, hi):
    """Per-prefix windows of the sums of cubes that can end in [lo, hi]."""
    return [(w[0], v[1]) for w, v in zip(search._reach(lo, cubes), search._reach(hi, cubes))]


def spy_steps(monkeypatch):
    """The steps find_solution runs, in order: (bound, best_max given)."""
    steps, real = [], search._search_at

    def spy(system, slots, prime_bound, window, best_max=None):
        steps.append((prime_bound, best_max))
        return real(system, slots, prime_bound, window, best_max)

    monkeypatch.setattr(search, "_search_at", spy)
    return steps


def test_index_holds_distinct_sums(monkeypatch):
    # (1,...,1) at bound 128: 31^4 ordered 4-tuples but only the distinct
    # sums of four prime cubes enter an index whose window admits them all
    primes = arith.sieve_primes(128)
    distinct = {sum(p**3 for p in c) for c in itertools.combinations_with_replacement(primes, 4)}
    assert len(distinct) == 44560
    slots = [np.asarray(primes, dtype=np.int64)] * 4
    cubes = [ps**3 for ps in slots]
    keys, _ = search._least_keys(slots, cubes, windows_between(cubes, 4 * 2**3, 4 * 127**3), lex=False)
    assert keys.tolist() == sorted(distinct)

    # n = 3 lies below the least sum 9 * 2^3: the search runs the bound
    # alone and reports exhaustion of all its ordered states without an index
    def forbidden(*args):
        raise AssertionError("built an index for an unreachable target")

    monkeypatch.setattr(search, "_least_keys", forbidden)
    steps = spy_steps(monkeypatch)
    out = find_solution(CoefficientSystem.make([1] * 9, 3), prime_bound=128)
    assert isinstance(out, SearchExhausted)
    assert out.states_visited == 31**4 + 31**5
    assert steps == [(128, None)]


def test_steps_start_at_the_least_prime_that_reaches_n(monkeypatch):
    # nine primes from {37, 41}: 10 * 37^3 < n <= 10 * 41^3, so no prime
    # bound below 41 reaches n, and the first step runs at 41, pass 2 alone
    steps = spy_steps(monkeypatch)
    got = find_solution(CoefficientSystem.make([1] * 8 + [2], 597870), prime_bound=128)
    assert (got.max_p, got.primes) == (41, (37,) * 5 + (41,) * 4)
    assert steps == [(41, 41)]


def test_steps_past_the_least_prime_that_reaches_n(monkeypatch):
    # eight 37s and a 43: n is first in reach at 41, whose step exhausts,
    # and the step one prime higher (no old rung) knows its least max
    steps = spy_steps(monkeypatch)
    got = find_solution(CoefficientSystem.make([1] * 8 + [2], 8 * 37**3 + 2 * 43**3), prime_bound=128)
    assert (got.max_p, got.primes) == (43, (37,) * 8 + (43,))
    assert steps == [(41, 41), (43, 43)]
    # a window leaves six candidate primes (23 to 43), no more than
    # STEP_PRIMES: no step at P0, and the bound's last prime runs both passes
    steps.clear()
    system = CoefficientSystem.make([1] * 9, 4 * 29**3 + 4 * 31**3 + 43**3)
    got = find_solution(system, prime_bound=128, window=(10**4, 10**5))
    assert (got.max_p, got.primes) == (43, (29,) * 4 + (31,) * 4 + (43,))
    assert steps == [(43, None)]


def test_small_step_answers_past_the_int64_span_of_the_bound():
    # a_9 = 10^13: nine 2s solve it, but a step at the full bound spans
    # 10^25 and is refused; the slots and the least reaching prime are
    # computed once at the bound without that refusal
    system = CoefficientSystem.make([1] * 8 + [10**13], 8 * 8 + 8 * 10**13)
    got = find_solution(system, prime_bound=10**4)
    assert (got.max_p, got.primes) == (2, (2,) * 9)
    with pytest.raises(ResourceLimitError, match="64-bit"):
        search._search_at(system, search._slot_primes(system, 10**4, None), 10**4, None)
    # a window leaves 2 and 3 in every slot: each step spans its own largest
    # prime, not the bound, so the step that holds them all is not refused
    system = CoefficientSystem.make([10**6] * 9, 8 * 8 * 10**6 + 27 * 10**6)
    got = find_solution(system, prime_bound=10**4, window=(1, 10**8))
    assert (got.max_p, got.primes) == (3, (2,) * 8 + (3,))


def test_ladder_matches_one_step_at_the_bound():
    # wherever the ladder starts and whichever steps it runs, it returns
    # what one search at the full bound returns
    rng = np.random.default_rng(39)
    found = 0
    for _ in range(240):
        coeffs = [int(rng.choice([1, -1, 2, -2, 3, -3, 5])) for _ in range(9)]
        bound = int(rng.integers(2, 61))
        window = None
        if rng.random() < 0.5:
            M = int(rng.integers(1, 500))
            window = (M, M + int(rng.integers(100, 10**6)))
        primes = arith.sieve_primes(bound)
        if rng.random() < 0.6:
            n = sum(a * int(rng.choice(primes)) ** 3 for a in coeffs)
        else:
            n = int(rng.integers(-10**5, 10**5))
        system = CoefficientSystem.make(coeffs, n)
        got = find_solution(system, prime_bound=bound, window=window)
        want = search._search_at(system, search._slot_primes(system, bound, window), bound, window)
        assert type(got) is type(want)
        if isinstance(want, SolutionRecord):
            assert (got.primes, got.max_p) == (want.primes, want.max_p)
            found += 1
        else:
            assert (got.prime_bound, got.states_visited) == (want.prime_bound, want.states_visited)
    assert 60 <= found <= 180


def test_distinct_sums_match_enumeration():
    # slots of different lengths, repeated and signed coefficients so that
    # many ordered tuples share a sum; itertools.product walks the index
    # tuples in row-major order, so the first to reach a sum has its
    # least flat index and is its lex-least tuple
    slots = [np.array(ps, dtype=np.int64) for ps in ([2, 3, 5, 7, 11], [3, 5, 7], [2, 3, 5, 7, 11, 13], [2, 7])]
    coeffs = (1, 2, 1, -1)
    least, first = {}, {}
    for flat, tup in enumerate(itertools.product(*[ps.tolist() for ps in slots])):
        s = sum(a * p**3 for a, p in zip(coeffs, tup))
        least[s] = min(least.get(s, max(tup)), max(tup))
        first.setdefault(s, flat)
    lo, hi = min(least), max(least)
    # the whole range, windows cut at a sum and one past it, and one empty
    windows = [(lo, hi), (lo - 5, hi + 5), (-1000, 3000), (-999, 2999), (0, 0), (hi + 1, hi + 9)]
    s1 = sorted(least)[len(least) // 3]
    windows += [(s1, s1), (s1 + 1, s1 + 4000), (s1 - 4000, s1 - 1)]
    cubes = [a * ps**3 for a, ps in zip(coeffs, slots)]
    for w_lo, w_hi in windows:
        want = [s for s in sorted(least) if w_lo <= s <= w_hi]
        for lex, key in ((False, least), (True, first)):
            sums, keys = search._least_keys(slots, cubes, windows_between(cubes, w_lo, w_hi), lex)
            assert sums.tolist() == want
            assert keys.tolist() == [key[s] for s in want]


def test_search_ignores_refine_cap(monkeypatch):
    # REFINE_CAP guards solution_exists alone: with it at 0 the search
    # still returns the lex-least tuple at the optimal max
    monkeypatch.setattr(search, "REFINE_CAP", 0)
    rng = np.random.default_rng(814)
    for _ in range(15):
        coeffs = [int(rng.choice([1, -1, 2, 3])) for _ in range(9)]
        n = sum(a * int(p) ** 3 for a, p in zip(coeffs, rng.choice([2, 3, 5, 7, 11], 9)))
        system = CoefficientSystem.make(coeffs, n)
        got = find_solution(system, prime_bound=11)
        assert got.found_by == "meet_in_the_middle+lex"
        assert (got.max_p, got.primes) == dict_oracle(system, 11)


def test_lex_least_past_the_old_refine_cap():
    # a greedy over suffix sets of sums needs more than REFINE_CAP stored
    # sums here; that greedy, uncapped, gives this tuple, while the first
    # meet-in-the-middle witness at max 101 began (101, 101, 101, 89)
    system = CoefficientSystem.make([3, 3, 3, 3, 3, -1, 2, 2, 1], 13825572)
    got = find_solution(system, prime_bound=128)
    assert (got.max_p, got.primes) == (101, (7, 97, 97, 97, 97, 2, 61, 101, 71))
    assert got.found_by == "meet_in_the_middle+lex"


def test_later_last_prime_lowers_max():
    # p9 = 2, 3 and 5 each complete a solution with max 13; only p9 = 7
    # reaches the optimum 7, so the scan must not stop at the first hit
    system = CoefficientSystem.make([1, 2, 2, 1, -1, -1, 1, 1, -1], -655)
    got = search._search_at(system, search._slot_primes(system, 13, None), 13, None)
    assert got.max_p == 7 and got.primes[8] == 7
    assert (got.max_p, got.primes) == dict_oracle(system, 13)


def test_enum_cap_refuses_before_expanding(monkeypatch):
    def forbidden(*args):
        raise AssertionError("expanded past the state cap")

    monkeypatch.setattr(search, "_least_keys", forbidden)
    monkeypatch.setattr(search, "ENUM_CAP", 11**4 + 11**5 - 1)
    system = CoefficientSystem.make([1] * 9, 3)
    with pytest.raises(ResourceLimitError, match=f"visit {11**4 + 11**5} states"):
        search._search_at(system, search._slot_primes(system, 31, None), 31, None)


def test_failed_solution_check_is_typed():
    system = CoefficientSystem.make([1] * 9, 72)
    with pytest.raises(NumericIntegrityError):
        SolutionRecord(system, (2,) * 8 + (3,), 3, 72 ** (1 / 3), "meet_in_the_middle")


def test_threshold_scan_cross_check_is_typed(monkeypatch):
    exhausted = CoefficientSystem.make([1] * 9, 72)
    monkeypatch.setattr(search, "find_solution", lambda system, bound: SearchExhausted(exhausted, bound, None, 0))
    with pytest.raises(NumericIntegrityError):
        threshold_scan([[1] * 9], range(1, 100), prime_bound=20)


def pruned_set_pairs(coeffs, n, primes):
    """Pairs each step of a pruned running set of sums forms, and whether
    n is reached, in Python sets: the counts REFINE_CAP is checked against."""
    cubes = [[a * p**3 for p in primes] for a in coeffs]
    sums, pairs = {0}, []
    for j, c in enumerate(cubes):
        rest = cubes[j + 1 :]
        lo, hi = n - sum(max(r) for r in rest), n - sum(min(r) for r in rest)
        pairs.append(len(sums) * len(c))
        sums = {s + x for s in sums for x in c if lo <= s + x <= hi}
    return pairs, bool(sums)


# a search benchmark existence check: the set becomes a bitmap at its fifth slot
BITMAP_CASE = ((1, 1, 3, 1, 1, 1, 1, 1, 1), 46959, 30)


def test_shift_or_matches_pairwise_sums():
    # bitmaps over [lo, ...] shifted by signed cubes into [a, b]: shifts that
    # overlap out at either end, cover it, miss it on either side or are empty
    rng = np.random.default_rng(36)
    for _ in range(400):
        reach = rng.random(int(rng.integers(1, 30))) < 0.4
        lo, a = (int(x) for x in rng.integers(-60, 60, size=2))
        b = a + int(rng.integers(0, 40))
        cubes = [int(x) for x in rng.integers(-120, 120, size=int(rng.integers(0, 6)))]
        want = {lo + i + c for i in np.flatnonzero(reach).tolist() for c in cubes} & set(range(a, b + 1))
        got = search._shift_or(reach, lo, cubes, a, b)
        assert len(got) == b - a + 1 and set((np.flatnonzero(got) + a).tolist()) == want


def test_exists_matches_oracle_on_the_set_and_the_bitmap(monkeypatch):
    # each call spied: its set steps (_distinct) and its bitmap steps
    # (_shift_or); the step that turns the set into a bitmap calls neither
    steps = []
    for name in ("_distinct", "_shift_or"):
        real = getattr(search, name)

        def spy(*args, name=name, real=real):
            steps[-1].append(name)
            return real(*args)

        monkeypatch.setattr(search, name, spy)
    rng = np.random.default_rng(35)
    seen = set()
    for _ in range(80):
        coeffs = tuple(int(rng.choice([1, -1, 2, -2, 3, -3, 5])) for _ in range(9))
        bound = int(rng.integers(5, 14))
        window = None
        if rng.random() < 0.5:
            M = int(rng.integers(1, 150))
            window = (M, M + int(rng.integers(100, 12000)))
        slots = small_slots(coeffs, bound, window)
        if all(slots) and rng.random() < 0.5:
            n = sum(a * int(rng.choice(ps)) ** 3 for a, ps in zip(coeffs, slots))
        else:
            n = int(rng.integers(-30000, 60000))
        steps.append([])
        got = solution_exists(CoefficientSystem.make(coeffs, n), prime_bound=bound, window=window)
        assert got == (n in least_max_by_sum(coeffs, bound, window))
        if not all(slots):  # refused before any step
            continue
        sets, bitmaps = steps[-1].count("_distinct"), steps[-1].count("_shift_or")
        assert sets == 9 or sets + 1 + bitmaps == 9  # one switch, one way
        seen.add(("set" if sets == 9 else "bitmap", got))
        if sets and bitmaps:
            seen.add("switch at a later slot")
    assert seen >= {("set", False), ("bitmap", False), ("bitmap", True), "switch at a later slot"}


def test_exists_refuses_over_the_cap_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the cap check")

    monkeypatch.setattr(search, "REFINE_CAP", 0)
    monkeypatch.setattr(np, "zeros", refuse)
    monkeypatch.setattr(np, "sort", refuse)
    with pytest.raises(ResourceLimitError):
        solution_exists(CoefficientSystem.make([1] * 9, 72), prime_bound=10)


def test_exists_cap_counts_the_pairs_of_the_set_path(monkeypatch):
    # the largest step of BITMAP_CASE is a bitmap step; REFINE_CAP refuses
    # it exactly when the running set's pairs there exceed the cap
    coeffs, n, bound = BITMAP_CASE
    pairs, reached = pruned_set_pairs(coeffs, n, arith.sieve_primes(bound))
    assert pairs.index(max(pairs)) > 4
    system = CoefficientSystem.make(coeffs, n)
    monkeypatch.setattr(search, "REFINE_CAP", max(pairs))
    assert solution_exists(system, prime_bound=bound) == reached
    monkeypatch.setattr(search, "REFINE_CAP", max(pairs) - 1)
    with pytest.raises(ResourceLimitError):
        solution_exists(system, prime_bound=bound)


def test_exists_bitmap_stays_under_the_pair_array():
    # a step that sorted the 190,280 pairs of slot 8 would hold their int64
    # array and its sorted copy, twice the bound; the bitmaps hold at most
    # one window each.  Slack: 64 KiB for the slot arrays and Python objects
    coeffs, n, bound = BITMAP_CASE
    pairs, _ = pruned_set_pairs(coeffs, n, arith.sieve_primes(bound))
    system = CoefficientSystem.make(coeffs, n)
    solution_exists(system, prime_bound=bound)  # sieve and caches warm
    tracemalloc.start()
    try:
        assert solution_exists(system, prime_bound=bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * max(pairs) + 64 * 1024


def test_threshold_scan_skips_cubes_past_the_scan_without_overflow():
    # 3 * 10^18 * 2^3 overflows int64; every cube a_1 p^3 of the two big
    # first coefficients lies past the scan, so neither system reaches any n
    rows = threshold_scan([[10**15] + [1] * 8, [1] * 9], range(1, 300), 100)
    assert [(r.found, r.n, r.max_p) for r in rows] == [(False, None, None), (True, 72, 2)]
    rows = threshold_scan([[3 * 10**18] + [1] * 8], range(1, 10**5), 100)
    assert [(r.found, r.n, r.max_p) for r in rows] == [(False, None, None)]


def test_span_is_checked_at_the_largest_prime_the_slots_hold():
    # a window leaves 2 and 3 in every slot of [10^6] * 9: the sums span
    # about 10^8, though the prime bound 10^4 would span 9 * 10^18
    system = CoefficientSystem.make([10**6] * 9, 91 * 10**6)
    assert solution_exists(system, 10**4, (1, 10**8))
    out = find_solution(CoefficientSystem.make([10**6] * 9, 1), 10**4, (1, 10**8))
    assert isinstance(out, SearchExhausted)  # n = 1 lies below every sum
    assert (out.prime_bound, out.states_visited) == (10**4, 2**4 + 2**5)
    # with no window the slots hold primes up to 9973, and the span refuses
    with pytest.raises(ResourceLimitError, match="64-bit"):
        solution_exists(system, 10**4)


def spy_threshold_passes(monkeypatch):
    """The bitmap steps (_shift_or calls) and the systems find_solution gets."""
    shifts, searched = [], []
    real_shift, real_find = search._shift_or, search.find_solution

    def shift(*args):
        shifts.append(1)
        return real_shift(*args)

    def find(system, bound):
        searched.append(system.a)
        return real_find(system, bound)

    monkeypatch.setattr(search, "_shift_or", shift)
    monkeypatch.setattr(search, "find_solution", find)
    return shifts, searched


def test_threshold_scan_searches_each_multiset_once(monkeypatch):
    # two multisets in five slot orders and one with no n in the range:
    # three bitmap passes of nine steps, and one search per multiset with
    # a hit, on its sorted coefficients
    shifts, searched = spy_threshold_passes(monkeypatch)
    grid = [[1] * 8 + [3], [3] + [1] * 8, [1] * 4 + [2] + [1] * 4, [1] * 3 + [2] + [1] * 5,
            [2] + [1] * 8, [1] * 8 + [300]]
    rows = threshold_scan(grid, range(2000, 2101), 50)
    assert len(shifts) == 3 * 9
    assert searched == [(1,) * 8 + (3,), (1,) * 8 + (2,)]
    assert [r.coeffs for r in rows] == [tuple(g) for g in grid]
    assert [(r.n, r.max_p, r.D) for r in rows] == [(2013, 7, 3)] * 2 + [(2005, 7, 2)] * 3 + [(None, None, 300)]


def test_permuted_threshold_rows_match_a_search_in_their_own_order():
    # each row's least n and max_p are those of find_solution run on the
    # row as given: it solves n with that max, and no n of the range below
    rng = np.random.default_rng(40)
    checked = 0
    for _ in range(4):
        base = [int(x) for x in rng.choice([1, 1, 1, 2, 3, 5], size=9)]
        grid = [rng.permutation(base).tolist() for _ in range(3)]
        lo = int(rng.integers(100, 3000))
        for row in threshold_scan(grid, range(lo, lo + 300), 30):
            for n in range(lo, row.n if row.found else lo + 300):
                assert isinstance(find_solution(CoefficientSystem.make(row.coeffs, n), 30), SearchExhausted)
            if row.found:
                got = find_solution(CoefficientSystem.make(row.coeffs, row.n), 30)
                assert (got.max_p, got.n_cuberoot) == (row.max_p, row.n_cuberoot)
                checked += 1
    assert checked >= 6


def test_match_pass_stays_within_the_halves(monkeypatch):
    # pass 1 of a bound-128 step for [1] * 9: one index of all 44,560 sums
    # of four prime cubes serves both halves.  A chunk of slot 9 forms at
    # most len(index) + len(mid) cells; its needs, their positions, the
    # index values there and the hit mask take 25 bytes a cell, where
    # matching all 31 primes of slot 9 at once would take 15.5 times as
    # many cells.  The pass holds at least one int64 need per mid sum.
    # Slack: 64 KiB for Python objects
    system = CoefficientSystem.make([1] * 9, 9 * 101**3)
    slots = search._slot_primes(system, 128, None)
    search._search_at(system, slots, 128, None)  # caches warm
    sizes, extra, real = [], [], search._least_keys

    def spy(*args):
        if sizes:  # the match pass of the halves before has run
            extra.append(tracemalloc.get_traced_memory()[1] - sizes[-1][1])
        out = real(*args)
        tracemalloc.reset_peak()
        sizes.append((len(out[0]), tracemalloc.get_traced_memory()[0]))
        return out

    monkeypatch.setattr(search, "_least_keys", spy)
    tracemalloc.start()
    try:
        assert search._search_at(system, slots, 128, None).max_p == 101
    finally:
        tracemalloc.stop()
    cells = 2 * sizes[0][0]
    assert sizes[0][0] == 44560
    assert 8 * sizes[0][0] <= extra[0] < 32 * cells + 64 * 1024
