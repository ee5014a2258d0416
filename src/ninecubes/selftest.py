"""Acceptance checks: one callable per criterion, plus a batch runner.

Each check returns a CheckResult carrying a pass flag and a short
human-readable detail line; run_all executes a selection (optionally in
a thread pool) and never raises, so a failing criterion is reported
rather than aborting the batch.

The checks mirror the library's cross-validation structure: identities
are verified against independent routes (partial-sum join vs Fourier
sampling, character sums vs exact counts, partial sums vs Euler
products), and the asymptotic statements are probed as finite-size
corridors rather than asserted limits.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import arcs, arith, characters, convolve, expsum, localdata, search, singular
from .errors import DomainError
from .localdata import CoefficientSystem

DEFAULT_SEED = 20260817

_COEFF_POOL = (2, 3, 5, 7, 11, 13)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    elapsed: float
    detail: str


def random_valid_system(
    rng: np.random.Generator,
    n_lo: int,
    n_hi: int,
    max_prime_slots: int = 3,
) -> CoefficientSystem:
    """A coefficient system satisfying the solubility side conditions.

    Magnitudes are 1 except for up to max_prime_slots distinct small
    primes, which keeps pairwise coprimality automatic; signs are random.
    n is drawn from [n_lo, n_hi] and nudged by one to fix parity.
    """
    k = int(rng.integers(0, max_prime_slots + 1))
    mags = [1] * 9
    picks = rng.choice(len(_COEFF_POOL), size=k, replace=False)
    slots = rng.choice(9, size=k, replace=False)
    for slot, pick in zip(slots, picks):
        mags[slot] = _COEFF_POOL[pick]
    signs = [1 if rng.random() < 0.5 else -1 for _ in range(9)]
    coeffs = tuple(s * m for s, m in zip(signs, mags))
    n = int(rng.integers(n_lo, n_hi + 1))
    if (sum(coeffs) - n) % 2 != 0:
        n += 1 if n < n_hi else -1
    system = CoefficientSystem.make(coeffs, n)
    if problems := system.violations():
        raise DomainError(f"generated system {coeffs} violates {problems}")
    return system


def _window_target(rng: np.random.Generator, sups: list[expsum.WeightedCubeSupport]) -> int:
    """A target drawn inside the attainable signed-sum range of the slot supports."""
    k_min = sum(int(s.indices.min()) for s in sups if len(s))
    k_max = sum(int(s.indices.max()) for s in sups if len(s))
    if k_min >= k_max:
        return k_min
    return int(rng.integers(k_min, k_max + 1))


def check_fourier_direct(rng: np.random.Generator) -> tuple[bool, str]:
    """The direct join and Fourier sampling give the same r(n).

    Even trials plant n as a sum of one support index per slot, so real
    counts are compared, not only zeros.
    """
    worst, nonzero = 0.0, 0
    for trial in range(30):
        if trial < 28:
            N = int(rng.integers(2000, 20001))
            system = random_valid_system(rng, 1, 10)
        else:
            N = 10**5
            system = random_valid_system(rng, 1, 10, max_prime_slots=0)
        M = N // 10
        sups = [expsum.cube_support(aj, M, N) for aj in system.a]
        if trial % 2 == 0 and all(len(s) for s in sups):
            n = sum(int(rng.choice(s.indices)) for s in sups)
        else:
            n = _window_target(rng, sups)
            if (sum(system.a) - n) % 2 != 0 and trial % 3 != 0:
                n += 1  # mostly parity-consistent targets
        system = CoefficientSystem.make(system.a, n)
        direct = expsum.weighted_count_direct(system, M, N)
        fourier = expsum.weighted_count_fourier(system, M, N)
        nonzero += direct != 0
        err = abs(direct - fourier) / (1.0 + abs(direct))
        worst = max(worst, err)
        if err > 1e-6:
            return False, f"relative gap {err:.3g} at a={system.a}, n={n}, N={N}"
    return True, f"30 systems ({nonzero} nonzero counts), worst relative gap {worst:.3g}"


def _mult_test_systems() -> list[CoefficientSystem]:
    return [
        CoefficientSystem.make((1,) * 9, 23),
        CoefficientSystem.make((1, 1, 1, -2, 3, 1, 5, 1, -1), 14),
    ]


def check_local_multiplicativity(rng: np.random.Generator) -> tuple[bool, str]:
    """A(q1 q2) = A(q1) A(q2) and N(q1 q2) = N(q1) N(q2) on coprime pairs.

    unit_solution_count composes N(q1 q2) from prime powers, so it is held
    against the convolution count at q1 q2, and multiplicativity is
    checked on that definition route.
    """
    pairs = [
        (q1, q2)
        for q1 in range(2, 21)
        for q2 in range(q1 + 1, 401)
        if q1 * q2 <= 400 and math.gcd(q1, q2) == 1
    ]
    worst = 0.0
    for system in _mult_test_systems():
        conv = {
            q: localdata._count_by_convolution(q, system)
            for q in {q for pair in pairs for q in (*pair, math.prod(pair))}
        }
        for q1, q2 in pairs:
            lhs = localdata.series_term(q1 * q2, system)
            rhs = localdata.series_term(q1, system) * localdata.series_term(q2, system)
            gap = abs(lhs - rhs)
            worst = max(worst, gap)
            if gap > 1e-8:
                return False, f"A({q1}*{q2}) off by {gap:.3g} for a={system.a}"
            n12, c12 = localdata.unit_solution_count(q1 * q2, system), conv[q1 * q2]
            if n12 != c12:
                return False, f"composed N({q1}*{q2}) = {n12} != counted {c12} for a={system.a}"
            if c12 != conv[q1] * conv[q2]:
                return False, f"N({q1}*{q2}) = {c12} != {conv[q1]}*{conv[q2]} for a={system.a}"
    return True, f"{len(pairs)} coprime pairs x 2 systems, worst A-gap {worst:.3g}"


def check_support_vanishing(rng: np.random.Generator) -> tuple[bool, str]:
    """A(q) vanishes off moduli of the form 3^e (e <= 3) times squarefree."""
    system = CoefficientSystem.make((1,) * 9, 23)
    checked = 0
    worst = 0.0
    for q in range(2, 2001):
        fact = arith.factorize(q)
        off_support = any(
            (p != 3 and e >= 2) or (p == 3 and e >= 4) for p, e in fact
        )
        if not off_support:
            continue
        val = abs(localdata.series_term(q, system))
        checked += 1
        worst = max(worst, val)
        if val > 1e-9:
            return False, f"|A({q})| = {val:.3g} though {q} is off the support"
    return True, f"{checked} off-support q <= 2000, max |A(q)| = {worst:.3g}"


def check_char_sum_bound(rng: np.random.Generator) -> tuple[bool, str]:
    """|C_chi(a)| <= 3 (3,p) (a, p^alpha)^(1/2) p^(alpha/2) for small prime powers."""
    count = 0
    for p in (2, 3, 5, 7, 11, 13):
        for alpha in (1, 2):
            q = p**alpha
            for chi in characters.character_group(q):
                ok = localdata.char_sum_bound_ok(chi)
                if not ok.all():
                    return False, f"bound fails at q={q}, a={np.argmin(ok)}, chi={chi.exponents}"
                count += q
    return True, f"{count} (chi, a) pairs within the bound"


def check_local_factor_identity(rng: np.random.Generator) -> tuple[bool, str]:
    """s(p) = 1 + A(p), A(p) by definition, equals p N(p) / phi(p)^9 with N(p) counted exactly."""
    worst = 0.0
    for _ in range(5):
        system = random_valid_system(rng, 1, 1000)
        for p in arith.sieve_primes(101).tolist():
            s = 1.0 + localdata.series_term(p, system)
            exact = Fraction(
                p * localdata.unit_solution_count(p, system), arith.euler_phi(p) ** 9
            )
            gap = abs(s - float(exact)) / max(1.0, abs(float(exact)))
            worst = max(worst, gap)
            if gap > 1e-9:
                return False, f"s({p}) off by {gap:.3g} for a={system.a}, n={system.n}"
    return True, f"5 systems x primes to 101, worst relative gap {worst:.3g}"


def check_full_sum_count_identity(rng: np.random.Generator) -> tuple[bool, str]:
    """Principal-character full sum F(q) equals q times the unit solution count."""
    for system in _mult_test_systems():
        for q in range(1, 51):
            f = localdata.principal_twisted_sum(q, system, units_only=False)
            qn = q * localdata.unit_solution_count(q, system)
            if abs(f.imag) > 1e-9 * (1 + abs(qn)):
                return False, f"F({q}) has imaginary part {f.imag:.3g}"
            if round(f.real) != qn or abs(f.real - qn) > 1e-6 * (1 + abs(qn)):
                return False, f"F({q}) = {f.real!r} but q N(q) = {qn} for a={system.a}"
    return True, "q <= 50 on 2 systems, F(q) rounds to q N(q) exactly"


def check_series_convergence(rng: np.random.Generator) -> tuple[bool, str]:
    """Partial sums converge with tail slope <= -0.8; series positive when valid."""
    system = CoefficientSystem.make((1,) * 9, 23)
    full = singular.singular_series_partial(system, 10**4).value
    xs, tails = [], []
    for x in (10, 100, 1000):
        tail = abs(full - singular.singular_series_partial(system, x).value)
        if tail == 0.0:
            continue
        xs.append(math.log(x))
        tails.append(math.log(tail))
    if len(xs) >= 2:
        slope = np.polyfit(xs, tails, 1)[0]
        if slope > -0.8:
            return False, f"tail slope {slope:.3f} > -0.8"
    else:
        slope = float("-inf")
    for _ in range(20):
        sys_i = random_valid_system(rng, 1, 5000)
        value = singular.singular_series_euler(sys_i, 101)
        if not value > 0:
            return False, f"series {value!r} not positive for a={sys_i.a}, n={sys_i.n}"
    return True, f"tail slope {slope:.3f}, 20 random series all positive"


def check_integral_stability(rng: np.random.Generator) -> tuple[bool, str]:
    """Normalized integral stays within a factor 2 while N doubles three times."""
    mixed = CoefficientSystem.make((1, 1, 1, -2, 3, 1, 5, 1, -1), 14)
    spreads = []
    for tag, make_sys in (
        ("all-positive", lambda N: CoefficientSystem.make((1,) * 9, N)),
        ("mixed-sign", lambda N: mixed),
    ):
        values = []
        for N in (1000, 2000, 4000, 8000):
            system = make_sys(N)
            rep = singular.singular_integral(system, N // 10, N)
            if rep.normalized <= 0:
                return False, f"{tag}: normalized integral {rep.normalized!r} at N={N}"
            values.append(rep.normalized)
        spread = max(values) / min(values)
        spreads.append(f"{tag} spread {spread:.3f}")
        if spread > 2.0:
            return False, f"{tag}: spread {spread:.3f} exceeds 2"
    return True, "; ".join(spreads)


def check_arc_dissection(rng: np.random.Generator) -> tuple[bool, str]:
    """Arcs are pairwise disjoint inside the unit window; approximations verify."""
    dis = arcs.build_dissection(10**6, 2, 0.01, 1.0)
    lo_edge, hi_edge = Fraction(1, dis.Q), 1 + Fraction(1, dis.Q)
    for arc in dis.arcs:
        if not (lo_edge <= arc.lo and arc.hi <= hi_edge):
            return False, f"arc at {arc.a}/{arc.q} leaves the unit window"
    for left, right in zip(dis.arcs, dis.arcs[1:]):
        if not left.hi < right.lo:
            return False, f"arcs at {left.a}/{left.q} and {right.a}/{right.q} touch"
    if not dis.major_measure < 1:
        return False, f"major measure {dis.major_measure} is not < 1"
    for _ in range(10**4):
        alpha = float(rng.random())
        a, q = arcs.dirichlet_approx(alpha, dis.Q)
        if not (1 <= q <= dis.Q and abs(q * Fraction(alpha) - a) <= Fraction(1, dis.Q)):
            return False, f"approximation fails at alpha={alpha!r}"
    return True, (
        f"{len(dis.arcs)} arcs disjoint, measure {float(dis.major_measure):.3e}, "
        "10^4 approximations verified"
    )


def check_main_term_corridor(rng: np.random.Generator) -> tuple[bool, str]:
    """r(n)/main-term corridor at n = N, with a block-averaged diagnostic.

    At n = N with window (N/10, N] every slot value is an odd prime cube
    above N/10, so every attainable sum is odd while N is even.  At
    N = 1e5 and 3e5 the least attainable sum (9 * 23^3 = 109503 and
    9 * 37^3 = 455877) also exceeds N; at N = 1e6 it does not
    (9 * 47^3 = 934407 < N), and parity alone forces the zero.  r(N) is
    therefore exactly 0 at all three sizes and the pointwise corridor
    cannot be met (the attainable sums number only a few thousand across
    a range of width ~8N, so r(n) = 0 at almost every n).  The check
    reports the faithful ratios and, for context, the block-averaged
    corridor from corridor_block_diagnostic.
    """
    ratios = []
    for N in (10**5, 3 * 10**5, 10**6):
        M = N // 10
        system = CoefficientSystem.make((1,) * 9, N)
        r = expsum.weighted_count_direct(system, M, N)
        mt = singular.main_term(system, M, N)
        ratios.append(r / mt if mt else float("nan"))
    ok = all(0.2 <= t <= 5 for t in ratios)
    if ok:
        for prev, cur in zip(ratios, ratios[1:]):
            toward_one = abs(cur - 1) <= abs(prev - 1)
            if not (toward_one or abs(cur - prev) <= 0.1 * abs(prev)):
                ok = False
    raw, corrected = corridor_block_diagnostic()
    detail = (
        "ratios at n=N: " + ", ".join(f"{t:.4g}" for t in ratios)
        + "; block-averaged raw: " + ", ".join(f"{t:.4g}" for t in raw)
        + "; prime-mass corrected: " + ", ".join(f"{t:.4g}" for t in corrected)
    )
    return ok, detail


@lru_cache(maxsize=None)
def corridor_block_diagnostic() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Averaged corridor over the bulk block n in [4N, 6N], n odd.

    Sums r(n) over the block and compares with the averaged prediction
    (1/3^9) * 2 * sum J(n): the mean of the singular series over odd n
    is exactly 2 for unit coefficients, and resolving it by residue
    class changes the block sums by less than a part in 10^4.  The raw
    ratio carries the ninth power of the window's prime-mass deficit
    theta/(N^(1/3) - M^(1/3)); the corrected ratio divides that factor
    out and is the meaningful finite-size figure.  The result is
    computed once per process.
    """
    raw, corrected = [], []
    for N in (10**5, 3 * 10**5, 10**6):
        M = N // 10
        sup = expsum.cube_support(1, M, N)
        theta = float(sup.weights.sum())
        kappa9 = (theta / (N ** (1.0 / 3.0) - M ** (1.0 / 3.0))) ** 9
        r_all = convolve.convolve_full([convolve.from_sparse(sup.indices, sup.weights)] * 9)
        j_all = convolve.convolve_full([singular.integral_support(1, M, N)] * 9)
        lo_b, hi_b = 4 * N, 6 * N

        def odd_block_sum(iw):
            s0, s1 = max(lo_b, iw.lo), min(hi_b, iw.hi)
            if s1 < s0:
                return 0.0
            vals = iw.values[s0 - iw.offset : s1 - iw.offset + 1]
            ns = np.arange(s0, s1 + 1)
            return float(vals[ns % 2 == 1].sum())

        r_sum = odd_block_sum(r_all)
        mt_sum = 3.0**-9 * 2.0 * odd_block_sum(j_all)
        raw.append(r_sum / mt_sum if mt_sum else float("nan"))
        corrected.append(raw[-1] / kappa9)
    return tuple(raw), tuple(corrected)


def check_search_consistency(rng: np.random.Generator) -> tuple[bool, str]:
    """find_solution, the reachability oracle, and r(n) agree on solubility."""
    M, N = 50, 9000
    soluble = 0
    for trial in range(20):
        system = random_valid_system(rng, 1, 10, max_prime_slots=2)
        sups = [expsum.cube_support(aj, M, N) for aj in system.a]
        if any(len(s) == 0 for s in sups):
            continue
        if trial % 2 == 0:
            n = sum(int(rng.choice(s.indices)) for s in sups)
        else:
            n = _window_target(rng, sups)
        system = CoefficientSystem.make(system.a, n)
        r = expsum.weighted_count_direct(system, M, N)
        found = search.find_solution(system, 20, window=(M, N))
        got = isinstance(found, search.SolutionRecord)
        independent = search.solution_exists(system, 20, window=(M, N))
        if got != (r > 0) or independent != got:
            return False, (
                f"solubility mismatch at a={system.a}, n={n}: "
                f"r={r!r}, search={got}, reachability={independent}"
            )
        if got:
            soluble += 1
            if max(found.primes) != found.max_p:
                return False, f"max_p field inconsistent at a={system.a}, n={n}"
    return True, f"20 systems agree on solubility ({soluble} soluble)"


CHECKS = (
    ("fourier_direct", check_fourier_direct),
    ("local_multiplicativity", check_local_multiplicativity),
    ("support_vanishing", check_support_vanishing),
    ("char_sum_bound", check_char_sum_bound),
    ("local_factor_identity", check_local_factor_identity),
    ("full_sum_count_identity", check_full_sum_count_identity),
    ("series_convergence", check_series_convergence),
    ("integral_stability", check_integral_stability),
    ("arc_dissection", check_arc_dissection),
    ("main_term_corridor", check_main_term_corridor),
    ("search_consistency", check_search_consistency),
)


def _run_one(name: str, fn, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    try:
        passed, detail = fn(rng)
    except Exception as exc:  # a crashing check is a failing check
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CheckResult(name, passed, time.perf_counter() - start, detail)


def run_all(
    names: list[str] | None = None,
    threads: int = 1,
    seed: int = DEFAULT_SEED,
) -> list[CheckResult]:
    """Run the selected checks (all by default), each with its own seeded rng."""
    table = dict(CHECKS)
    if names is None:
        names = [name for name, _ in CHECKS]
    unknown = [name for name in names if name not in table]
    if unknown:
        raise DomainError(f"unknown checks: {', '.join(unknown)}")
    # seeded by position in CHECKS, so any selection reproduces the full run
    index = {name: i for i, (name, _) in enumerate(CHECKS)}
    jobs = [(name, table[name], seed + index[name]) for name in names]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(_run_one, *job) for job in jobs]
            return [f.result() for f in futures]
    return [_run_one(*job) for job in jobs]
