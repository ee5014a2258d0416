"""Explicit prime solutions of a1*p1^3 + ... + a9*p9^3 = n.

The solver returns the solution under the prime bound minimizing max
p_j, tie-broken by the lexicographically least tuple (the max is the
figure of merit; solution sizes are compared against n^(1/3)).  It is a
meet-in-the-middle search run twice: slots 1-4 (the index) and slots
5-8 are each reduced to their sorted distinct sums, each keeping the
least key of the ordered tuples that reach it.  One match pass then
completes each sum of slots 5-8 with every prime of slot 9 and finds the
rest in the index by binary search, slot 9's primes taken in ascending
chunks of no more cells than the two halves hold.  Pass 1 keys a sum by
its least max prime and finds the optimal max; pass 2 caps every slot at
that max and keys a sum by its least row-major flat index, so its least
match is the lex-least solution.
`find_solution` runs the passes in steps its docstring lists.

Every step, and `solution_exists`, first cuts each slot to the primes
whose term a_j p^3 the other eight slots can complete to n; an n out of
reach leaves the cut empty and is reported exhausted without an index.
Every partial sum is then pruned to the target's reach: after each slot,
a sum that the remaining slots cannot bring to n is dropped before it is
sorted or set in a bitmap.  A half with no sum in its window exhausts
too.  The cut and the pruning drop only what no solution uses, and
`states_visited` still counts every ordered tuple of the uncut slots.

A solution is verified in exact integer arithmetic before it is
returned.  `solution_exists`, an independent reachability check used to
cross-validate the solver, and `threshold_scan`, the least representable
n in a range per all-positive system, share the bitmap step `_shift_or`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import arith, convolve
from .errors import DomainError, NumericIntegrityError, ResourceLimitError
from .localdata import CoefficientSystem

PRIME_BOUND_CAP = 10**4
# ordered states over a step's cut slots, checked before any expansion
ENUM_CAP = 2 * 10**8
# candidate primes up to which find_solution runs no step at P0: a failed one costs the search
STEP_PRIMES = 10
# pairs one step of solution_exists' reachability set may form
REFINE_CAP = 3 * 10**7
# largest n a threshold scan's reachability bitmaps cover
THRESHOLD_N_CAP = 10**7


@dataclass(frozen=True)
class SolutionRecord:
    system: CoefficientSystem
    primes: tuple[int, ...]
    max_p: int
    n_cuberoot: float
    found_by: str

    def __post_init__(self) -> None:
        total = sum(aj * p**3 for aj, p in zip(self.system.a, self.primes))
        if total != self.system.n:
            raise NumericIntegrityError(f"solution check failed: {total} != {self.system.n}")


@dataclass(frozen=True)
class SearchExhausted:
    """No solution under the bound; states_visited counts the ordered
    tuples the exhaustion covers, prod |left| + prod |mid| * |last|."""

    system: CoefficientSystem
    prime_bound: int
    window: tuple[int, int] | None
    states_visited: int


def _check_prime_bound(prime_bound: int) -> int:
    """The prime bound as an int, refused unless integral and in [2, PRIME_BOUND_CAP]."""
    prime_bound = arith.integral(prime_bound)
    if prime_bound < 2:
        raise DomainError(f"prime bound must be >= 2, got {prime_bound}")
    if prime_bound > PRIME_BOUND_CAP:
        raise ResourceLimitError(f"prime bound {prime_bound} exceeds cap {PRIME_BOUND_CAP}")
    return prime_bound


def _slot_primes(
    system: CoefficientSystem,
    prime_bound: int,
    window: tuple[int, int] | None,
) -> list[np.ndarray]:
    """Per-slot candidate primes up to the bound: with a window, those of
    arith.window_primes with N capped at |a_j| * bound^3, read once per
    distinct |a_j|.  Only the bound is sieved, so a window's N past the
    sieve cap is searched, not refused."""
    if window is None:
        return [arith.sieve_primes(prime_bound)] * 9
    M, N = arith.check_window(*window)
    slots = {
        mag: arith.window_primes(mag, M, min(N, mag * prime_bound**3))
        for mag in {abs(aj) for aj in system.a}
    }
    return [slots[abs(aj)] for aj in system.a]


def _reach(n: int, cubes: list[np.ndarray]) -> list[tuple[int, int]]:
    """windows[i]: the range [n - max, n - min] of the sums of cubes[:i]
    that cubes[i:] can still complete to n, max and min taken over the
    sums of cubes[i:], as Python ints.  Each slot's cubes a_j p^3 are
    monotone in its ascending primes, so its extremes are its ends."""
    lo = hi = 0
    windows = [(n, n)]
    for c in reversed(cubes):
        ends = sorted((int(c[0]), int(c[-1])))
        lo, hi = lo + ends[0], hi + ends[1]
        windows.append((n - hi, n - lo))
    return windows[::-1]


def _in_reach(system: CoefficientSystem, slots: list[np.ndarray]) -> tuple[list, list]:
    """The slots, each nonempty, and their terms a_j p^3, each cut to the
    terms in [n - (HI - hi_j), n - (LO - lo_j)], the reach the other eight
    slots leave (LO, HI: the sums of the slots' least and greatest terms;
    lo_j, hi_j: slot j's).  The int64 span is checked on the uncut slots."""
    span = sum(abs(aj) * int(ps[-1]) ** 3 for aj, ps in zip(system.a, slots)) + abs(system.n)
    if span >= 2**62:
        raise ResourceLimitError(f"coefficient sums near {span} overflow the 64-bit search arithmetic")
    terms = {aj: aj * slots[system.a.index(aj)] ** 3 for aj in set(system.a)}  # equal a_j, equal primes
    lo, hi = _reach(system.n, [terms[aj] for aj in system.a])[0]  # n - HI, n - LO
    cut = {}
    for aj, c in terms.items():  # none kept when n is out of reach
        keep = (c >= lo + max(c[0], c[-1])) & (c <= hi + min(c[0], c[-1])) if lo <= 0 <= hi else slice(0)
        cut[aj] = slots[system.a.index(aj)][keep], c[keep]
    return [cut[aj][0] for aj in system.a], [cut[aj][1] for aj in system.a]


def _distinct(x: np.ndarray, window: tuple[int, int] | None = None) -> np.ndarray:
    """Sorted distinct values of x, only those in the window when one is
    given (np.unique without its hashing path)."""
    x = x.ravel()
    if window is not None:
        x = x[(x >= window[0]) & (x <= window[1])]
    x = np.sort(x)
    return x[convolve._run_starts(x)]


def _least_keys(
    slots: list[np.ndarray],
    cubes: list[np.ndarray],
    windows: list[tuple[int, int]],
    lex: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct sums of the slots' cubes, each with the least key
    of the ordered tuples that reach it: their max prime, or with lex
    their row-major flat index, which orders them lexicographically.
    Built slot by slot: appending the prime p at column col maps a key
    to max(key, p) or key * len(ps) + col, monotone in the key, so each
    sum keeps the least over its prefix sums' least keys.  A partial sum
    over the first j slots outside windows[j] is dropped before it is
    sorted."""
    sums = keys = np.zeros(1, dtype=np.int64)
    for j, (ps, c) in enumerate(zip(slots, cubes)):
        full = (sums[:, None] + c).ravel()
        lo, hi = windows[j + 1]
        idx = np.flatnonzero((full >= lo) & (full <= hi))
        row, col = np.divmod(idx, len(ps))
        keys = keys[row] * len(ps) + col if lex else np.maximum(keys[row], ps[col])
        order = np.argsort(full[idx])
        sums = full[idx][order]
        starts = np.flatnonzero(convolve._run_starts(sums))
        sums, keys = sums[starts], np.minimum.reduceat(keys[order], starts)
    return sums, keys


def _best_match(system: CoefficientSystem, slots: list[np.ndarray], cubes: list, lex: bool):
    """The least match of a pair of half sums (_least_keys) and a prime p9
    of slot 9 that completes n, or None: its least max prime, or with lex
    its least (index flat key, mid flat key, p9).  Each half keeps only the
    sums the other half and slot 9 can complete to n.  Slot 9's ascending
    primes are matched in chunks of no more cells than the two halves
    hold, one binary search each; without lex, the pass stops before a
    chunk whose primes all reach the least max already found."""
    n, ps = system.n, slots[8]
    index, index_keys = mid, mid_keys = _least_keys(slots[:4], cubes[:4], _reach(n, cubes), lex)
    if system.a[:4] != system.a[4:8]:  # slot primes depend on a_j alone
        order = cubes[4:8] + cubes[:4] + cubes[8:]
        mid, mid_keys = _least_keys(slots[4:8], cubes[4:8], _reach(n, order), lex)
    if not (len(index) and len(mid)):  # no half sum can reach n
        return None
    best, step = None, (len(index) + len(mid)) // len(mid)
    for i in range(0, len(ps), step):
        if not lex and best is not None and ps[i] >= best:
            break
        need = (n - cubes[8][i : i + step, None] - mid).ravel()
        pos = np.searchsorted(index, need)
        hits = np.flatnonzero(index.take(pos, mode="clip") == need)
        if len(hits):
            row, col = np.divmod(hits, len(mid))
            p9, left, right = ps[i + row], index_keys[pos[hits]], mid_keys[col]
            if lex:
                k = np.lexsort((p9, right, left))[0]
                cand = (int(left[k]), int(right[k]), int(p9[k]))
            else:
                cand = int(np.maximum(np.maximum(left, right), p9).min())
            best = cand if best is None else min(best, cand)
    return best


def _search_at(
    system: CoefficientSystem, slots: list[np.ndarray], best_max: int | None = None
) -> SolutionRecord | int:
    """One step over the slots: its solution, or the count of the uncut states
    it exhausts; a best_max given is the least max of any solution in them."""
    if any(len(ps) == 0 for ps in slots):
        return 0
    cut, cubes = _in_reach(system, slots)
    visits, states = (math.prod(map(len, s[:4])) + math.prod(map(len, s[4:])) for s in (slots, cut))
    if not all(map(len, cut)):  # no solution in the slots
        return visits
    if states > ENUM_CAP:
        raise ResourceLimitError(f"search would visit {states} states, cap is {ENUM_CAP}")

    # pass 1: a matched pair of sums has least max max(its two least maxes, p9)
    if best_max is None:
        best_max = _best_match(system, cut, cubes, lex=False)
    if best_max is None:
        return visits

    # pass 2: every solution with all primes <= best_max attains it, and
    # for a fixed pair of half sums the lex-least left and mid tuples give
    # the lex-least tuple; distinct index sums have distinct flat keys
    slots = [ps[ps <= best_max] for ps in cut]
    least = _best_match(system, slots, [c[: len(ps)] for c, ps in zip(cubes, slots)], lex=True)
    if least is None:  # only where best_max was given
        return visits
    left, mid, p9 = least
    primes = [
        int(ps[i])
        for half, flat in ((slots[:4], left), (slots[4:8], mid))
        for ps, i in zip(half, np.unravel_index(flat, [len(ps) for ps in half]))
    ]
    return SolutionRecord(
        system=system,
        primes=tuple(primes + [p9]),
        max_p=best_max,
        n_cuberoot=abs(system.n) ** (1.0 / 3.0),
        found_by="meet_in_the_middle+lex",
    )


def find_solution(
    system: CoefficientSystem,
    prime_bound: int = 10**4,
    window: tuple[int, int] | None = None,
) -> SolutionRecord | SearchExhausted:
    """Best prime solution with all p_j <= prime_bound, or an exhaustion report.

    "Best" minimizes max p_j, then the tuple lexicographically.  The
    slots are read once at the bound and searched in steps of growing
    bound: P0, the least prime at which the capped slots can reach n, and
    the next prime (with more than STEP_PRIMES candidate primes), the last
    primes below 8, 32, 128, 512 and 2048 from P0 on, and the bound.  The
    first step with a solution holds the least max; a step at P0 or one
    prime past an exhausted step knows it and runs pass 2 alone.  Each
    step checks its int64 span, cuts its slots to n's reach (`_in_reach`)
    and checks ENUM_CAP on the cut's states before it allocates; an n out
    of reach at the bound runs that step alone, and its cut is empty.
    """
    prime_bound = _check_prime_bound(prime_bound)
    slots = _slot_primes(system, prime_bound, window)
    if not (all(map(len, slots)) and _reachable(system, slots, [prime_bound])[0]):
        return SearchExhausted(system, prime_bound, window, _search_at(system, slots))  # before pass 1
    caps = _distinct(np.concatenate(slots), (max(ps[0] for ps in slots), prime_bound))
    i0 = int(np.argmax(_reachable(system, slots, caps)))
    rungs = np.searchsorted(caps, [8, 32, 128, 512, 2048], side="right") - 1
    at = {int(i) for i in rungs if i >= i0} | {len(caps) - 1}
    at = sorted(at | ({i0, min(i0 + 1, len(caps) - 1)} if len(caps) > STEP_PRIMES else set()))
    for j, i in zip([i0 - 1] + at, at):
        cap = int(caps[i])
        best_max = cap if i == j + 1 else None  # no solution below cap
        result = _search_at(system, [ps[ps <= cap] for ps in slots], best_max)
        if isinstance(result, SolutionRecord):
            return result
    return SearchExhausted(system, prime_bound, window, result)


def _reachable(system: CoefficientSystem, slots: list[np.ndarray], caps) -> np.ndarray:
    """Per cap P >= each slot's first prime: can the slots capped at P reach n (Python ints)?"""
    lo = hi = 0
    for aj in set(system.a):  # slots of equal a_j hold the same primes
        ps, k = slots[system.a.index(aj)], system.a.count(aj) * aj
        ends = k * int(ps[0]) ** 3, k * ps[np.searchsorted(ps, caps, "right") - 1].astype(object) ** 3
        lo, hi = lo + ends[aj < 0], hi + ends[aj > 0]
    return (lo <= system.n) & (system.n <= hi)


def _shift_or(reach: np.ndarray, lo: int, cubes, a: int, b: int) -> np.ndarray:
    """Bitmap over [a, b] of every s + c there, s a set cell of the bitmap
    reach over [lo, ...], c in cubes: one in-place slice OR per cube."""
    out = np.zeros(b - a + 1, dtype=bool)
    for c in map(int, cubes):  # Python ints: no cube overflows
        d = lo + c - a  # reach[i] lands on out[i + d]
        if -len(reach) < d < len(out):  # the shifted reach overlaps out
            out[max(d, 0) : d + len(reach)] |= reach[max(-d, 0) : len(out) - d]
    return out


def solution_exists(
    system: CoefficientSystem,
    prime_bound: int = 100,
    window: tuple[int, int] | None = None,
) -> bool:
    """Independent reachability check via a running set of partial sums,
    each kept only while the remaining slots can still complete it to n:
    sorted int64 sums, and from the first slot whose window has no more
    cells than the bytes of the step's int64 (sum, cube) pairs, a bitmap.
    Its one pass at the full bound can meet REFINE_CAP on an input that
    find_solution's ladder answers at the same bound, in a step capped near
    the answer's max."""
    slots = _slot_primes(system, _check_prime_bound(prime_bound), window)
    if not all(map(len, slots)) or not all(map(len, cubes := _in_reach(system, slots)[1])):
        return False  # an empty slot, or a cut that leaves one empty
    windows = _reach(system.n, cubes)
    reach = np.array([0], dtype=np.int64)
    for j, (c, (a, b)) in enumerate(zip(cubes, windows[1:])):
        pairs = len(c) * (np.count_nonzero(reach) if reach.dtype == bool else len(reach))
        if pairs > REFINE_CAP:
            raise ResourceLimitError(f"reachability set would form {pairs} pairs, cap is {REFINE_CAP}")
        # keep the sums that slots j+1..8 can still complete to n
        if reach.dtype == bool:  # a bitmap over windows[j]
            reach = _shift_or(reach, windows[j][0], c, a, b)
        elif b - a < 8 * pairs:
            full = reach[:, None] + c - a
            reach = np.zeros(b - a + 1, dtype=bool)
            reach[full[(full >= 0) & (full <= b - a)]] = True
        else:
            reach = _distinct(reach[:, None] + c, (a, b))
    return bool(reach.any())  # the last window is [n, n]; a set there is empty


@dataclass(frozen=True)
class ThresholdRow:
    coeffs: tuple[int, ...]
    n: int | None
    found: bool
    max_p: int | None
    n_cuberoot: float | None
    D: int


def threshold_scan(
    coeff_grid,
    n_range,
    prime_bound: int = 100,
) -> list[ThresholdRow]:
    """Least representable n per all-positive system, scanned over n_range.

    The least n and its least max prime depend only on the multiset of
    coefficients, so each multiset is scanned once, in sorted order, and
    its row is given to every grid row that permutes it.  Reachability of
    every candidate n is decided at once by one `_shift_or` step per slot
    over [0, max(n_range)]; the least max prime of the least hit is then
    found with find_solution.  Refused before any bitmap is built: a grid
    row the CoefficientSystem constructor refuses (not nine nonzero
    integers) or with a coefficient below 1, a non-integral n,
    max(n_range) > THRESHOLD_N_CAP, and a prime bound outside
    [2, PRIME_BOUND_CAP]."""
    if not isinstance(n_range, range):
        n_range = [arith.integral(n) for n in n_range]
    # a range's ends bound it without walking it
    ends = [n_range[0], n_range[-1]] if isinstance(n_range, range) and n_range else n_range
    if not ends or min(ends) < 1:
        raise DomainError("n_range must contain positive integers")
    n_max = max(ends)
    if n_max > THRESHOLD_N_CAP:
        raise ResourceLimitError(f"scan end {n_max} exceeds cap {THRESHOLD_N_CAP}")
    prime_bound = _check_prime_bound(prime_bound)
    systems = [CoefficientSystem.make(coeffs, n_max) for coeffs in coeff_grid]
    for system in systems:
        if min(system.a) <= 0:
            raise DomainError(f"threshold scan needs all-positive systems, got {system.a}")
    n_values = _distinct(np.fromiter(n_range, dtype=np.int64, count=len(n_range)))
    cubes = [p**3 for p in arith.sieve_primes(prime_bound).tolist()]
    scans = {}  # the row of each sorted coefficient tuple, scanned once
    for key, system in {tuple(sorted(s.a)): s for s in systems}.items():
        reach = np.ones(1, dtype=bool)  # the sums over no slot: {0}
        for aj in key:  # Python ints; a cube past n_max reaches no n of the scan
            reach = _shift_or(reach, 0, [aj * c for c in cubes if aj * c <= n_max], 0, n_max)
        hits = n_values[reach[n_values]]
        if not hits.size:
            scans[key] = ThresholdRow(key, None, False, None, None, system.size_bound)
            continue
        hit = int(hits[0])
        record = find_solution(CoefficientSystem.make(key, hit), prime_bound)
        if not isinstance(record, SolutionRecord):
            raise NumericIntegrityError(
                f"bitmap reaches n = {hit} for {key}, find_solution does not"
            )
        scans[key] = ThresholdRow(key, hit, True, record.max_p, record.n_cuberoot, system.size_bound)
    return [replace(scans[tuple(sorted(s.a))], coeffs=s.a) for s in systems]
