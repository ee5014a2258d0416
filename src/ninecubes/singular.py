"""Singular series and singular integral for the nine-cube system.

Two independent routes to the series: the partial sum of A(q) over q <= x,
and the Euler product of s(p) = 1 + A(p) with the 3-adic factor summed to
exponent 3.  A(q) vanishes unless q is a power of 3 up to 27 times a
squarefree number prime to 3: one sieve over [1, x] finds that support.
A is multiplicative, so both routes read each A(q) correctly rounded from
the exact counts, cached per cutoff and system: the product of the exact
B(p^e) over q's prime powers, then one int/int division by phi(q)^9.  A
plan per cutoff holds what depends on x alone: the support, the tail cuts,
the Euler primes' positions, each q's places among the distinct (p, e) and
phi(q)^9.  Each call holds the definition route to the cached exact values:
A(3), A(9) and A(27) in one check_routes call, and the Euler factors s(p) at
every prime up to DEFINITION_ROUTE_MAX in one euler_factor call.

The singular integral J(n) sums (m_1 ... m_9)^(-2/3) over integer tuples
with sum a_j m_j = n and M < |a_j| m_j <= N.  The constraint is linear in
the m_j: each m_j stands for a cube p_j^3, so the per-variable window
matches the cube window of the counting problem.  J(n) and the number of
such tuples are each one coefficient of a nine-fold product, read by
convolve.convolve_read as one spectral product of the factors cropped to
the target's reach, with its rounding bound.  Slot j's factor holds
weights at multiples of |a_j| only, so it is transformed at L over the
5-smooth part of |a_j|.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import arith, convolve
from .errors import DomainError, NumericIntegrityError, ResourceLimitError
from .localdata import CoefficientSystem, check_routes, euler_factor, exact_term, prime_power_sum
from .localdata import prime_sums, series_term, series_terms

SERIES_X_CAP = 10**4  # also the Euler product's largest prime
DEFINITION_ROUTE_MAX = 10**3
INTEGRAL_N_CAP = 10**6
NORMALIZER = 3.0**-9  # each V_j contributes a factor 1/3 in the main term


@dataclass(frozen=True)
class SeriesReport:
    """Truncated singular series with its per-modulus terms."""

    cutoff: int
    value: float
    terms: tuple[tuple[int, float], ...]
    tail_estimate: float
    euler_pmax: int
    euler_value: float
    euler_tail_factor: float


def _euler_tail_factor(pmax: int) -> float:
    """Heuristic size of the product over p > pmax, not a bound: |A(p)| <= 40 p^(-9/2) fails."""
    return math.exp(40.0 * (2.0 / 7.0) * pmax ** (-3.5)) - 1.0


def _support(x: int) -> tuple[int, ...]:
    """The q <= x with A(q) possibly nonzero: 3^e m, e <= 3, m squarefree and prime to 3."""
    support = np.arange(x + 1) > 0
    for p in arith.sieve_primes(math.isqrt(x)):
        step = 81 if p == 3 else p * p
        support[step::step] = False
    return tuple(np.flatnonzero(support).tolist())


class _Plan(NamedTuple):
    """What a series at cutoff x needs of x alone, built once per cutoff."""

    support: tuple[int, ...]
    cuts: tuple[tuple[int, int], ...]  # (x0, position of the first q > x0) per tail
    euler: tuple[int, ...]  # the positions in support of the primes p != 3
    checked: tuple[int, ...]  # those primes up to DEFINITION_ROUTE_MAX
    keys: tuple[tuple[int, int], ...]  # the distinct (p, e) of the support
    rows: tuple[tuple[int, ...], ...]  # per q, the positions of its (p, e) in keys
    phi9: tuple[int, ...]  # per q, phi(q)^9


@functools.lru_cache(maxsize=8)
def _plan(x: int) -> _Plan:
    support = _support(x)
    cuts = tuple((x0, bisect.bisect_right(support, x0)) for x0 in (x // 4, x // 2) if x0 >= 1)
    primes = set(arith.sieve_primes(x).tolist()) - {3}
    euler = tuple(i for i, q in enumerate(support) if q in primes)
    checked = tuple(p for p in sorted(primes) if p <= DEFINITION_ROUTE_MAX)
    pos: dict[tuple[int, int], int] = {}
    rows = tuple(tuple(pos.setdefault(pe, len(pos)) for pe in arith.factorize(q)) for q in support)
    phi9 = tuple(arith.euler_phi(q) ** 9 for q in support)
    return _Plan(support, cuts, euler, checked, tuple(pos), rows, phi9)


@functools.lru_cache(maxsize=4)
def _terms(x: int, system: CoefficientSystem) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """A(q) at each q of the support to x, and at 3, 9, 27, correctly rounded: the
    product of the exact B(p^e) over q's prime powers over phi(q)^9, one int/int division."""
    plan = _plan(x)
    # B(p) at p != 3 from one closed-form pass, read in key order: a shared prime is refused first
    closed = prime_sums((p for p, _ in plan.keys if p != 3), system)
    sum_at = [next(closed) if p != 3 else prime_power_sum(p, e, system)
              for p, e in plan.keys].__getitem__
    terms = tuple([math.prod(map(sum_at, row)) / d for row, d in zip(plan.rows, plan.phi9)])
    return terms, tuple(exact_term(q, system) for q in (3, 9, 27))


def singular_series_euler(system: CoefficientSystem, pmax: int) -> float:
    """Euler route: prod_{p <= pmax, p != 3} s(p) times the 3-adic factor, from the exact
    terms the partial sum at pmax reports; every call holds series_term at 3, 9, 27 and the
    blocked pass's A(p) at each Euler prime up to DEFINITION_ROUTE_MAX to them."""
    if pmax < 3:
        raise DomainError(f"pmax must be >= 3, got {pmax}")
    if pmax > SERIES_X_CAP:
        raise ResourceLimitError(f"pmax {pmax} exceeds cap {SERIES_X_CAP}")
    plan = _plan(pmax)
    terms, threes = _terms(pmax, system)
    check_routes("A", (3, 9, 27), [series_term(q, system) for q in (3, 9, 27)], threes)
    factors, k = [1.0 + terms[i] for i in plan.euler], len(plan.checked)  # checked primes first
    euler_factor(plan.checked, series_terms(plan.checked, system), factors[:k])
    return math.prod(factors, start=1.0 + threes[0] + threes[1] + threes[2])


def singular_series_partial(system: CoefficientSystem, x: int) -> SeriesReport:
    """Partial-sum route: sum of A(q) over the support q <= x."""
    if x < 1:
        raise DomainError(f"cutoff must be >= 1, got {x}")
    if x > SERIES_X_CAP:
        raise ResourceLimitError(f"cutoff {x} exceeds cap {SERIES_X_CAP}")
    plan = _plan(x)
    values = _terms(x, system)[0]
    # empirical tail scale C/x, calibrated on the computed prefix
    tail = max([abs(math.fsum(values[cut:])) * x0 / x for x0, cut in plan.cuts], default=0.0)
    pmax = max(x, 3)
    return SeriesReport(
        cutoff=x,
        value=math.fsum(values),
        terms=tuple(zip(plan.support, values)),
        tail_estimate=tail,
        euler_pmax=pmax,
        euler_value=singular_series_euler(system, pmax),
        euler_tail_factor=_euler_tail_factor(pmax),
    )


@dataclass(frozen=True)
class IntegralReport:
    """Windowed singular integral and its normalized size."""

    window_m: int
    window_n: int
    value: float
    normalized: float
    solution_count: float


def integral_support(aj: int, M: int, N: int) -> convolve.IndexedWeights:
    """Weights m^(-2/3) at indices aj * m over the window M < |aj| m <= N."""
    mag = abs(aj)
    m_lo = M // mag + 1  # least m with |aj| m > M
    m_hi = N // mag  # greatest m with |aj| m <= N
    if m_hi < m_lo:
        return convolve.IndexedWeights(0, np.zeros(0, dtype=np.float64))
    span = (m_hi - m_lo) * mag + 1
    if span > INTEGRAL_N_CAP:
        raise ResourceLimitError(f"integral support span {span} exceeds cap {INTEGRAL_N_CAP}")
    m = np.arange(m_lo, m_hi + 1, dtype=np.float64)
    w = m ** (-2.0 / 3.0)
    vals = np.zeros(span, dtype=np.float64)
    if aj > 0:
        vals[::mag] = w
        return convolve.IndexedWeights(aj * m_lo, vals)
    vals[::mag] = w[::-1]
    return convolve.IndexedWeights(aj * m_hi, vals)


def _clamped(value: float, bound: float, what: str) -> float:
    """A read of nonnegative weights: 0 within its rounding bound below zero, else an error."""
    if value < -bound:
        raise NumericIntegrityError(f"{what} {value!r} is below minus its rounding bound {bound!r}")
    return max(value, 0.0)


def _integral_value(
    system: CoefficientSystem, M: int, N: int
) -> tuple[float, list[convolve.IndexedWeights]]:
    """J(n) over the window M < |a_j| m_j <= N, and the nine factors it is read from."""
    M, N = arith.check_window(M, N)
    if N > INTEGRAL_N_CAP:
        raise ResourceLimitError(f"window bound {N} exceeds cap {INTEGRAL_N_CAP}")
    supports = {aj: integral_support(aj, M, N) for aj in set(system.a)}
    parts = [supports[aj] for aj in system.a]
    return _clamped(*convolve.convolve_read(parts, system.n), "integral"), parts


def singular_integral(system: CoefficientSystem, M: int, N: int) -> IntegralReport:
    """J(n) and its tuple count over the window M < |a_j| m_j <= N.

    Both are read by convolve.convolve_read.  The weights are nonnegative,
    so a read below zero is rounding: it is clamped to 0 within the read's
    bound and raises NumericIntegrityError beyond it.  The count is an
    integer: a read whose bound is below 1/2 is rounded to it, while the
    integer is exact in a float.
    """
    value, parts = _integral_value(system, M, N)
    ones = [
        convolve.IndexedWeights(p.offset, (p.values > 0).astype(np.float64)) for p in parts
    ]
    count, bound = convolve.convolve_read(ones, system.n)
    count = _clamped(count, bound, "tuple count")
    if bound < 0.5 and count < 2.0**53:
        count = float(round(count))
    norm = value * abs(system.coefficient_product) ** (1.0 / 3.0) / float(N) ** 2
    return IntegralReport(
        window_m=M,
        window_n=N,
        value=value,
        normalized=norm,
        solution_count=count,
    )


def main_term(
    system: CoefficientSystem, M: int, N: int, series_cutoff: int = DEFINITION_ROUTE_MAX
) -> float:
    """(1/3^9) * (series partial sum at the cutoff) * J(n); no tuple count is read.

    J(n) is read first, so its window cap refuses before the series runs.
    """
    integral = _integral_value(system, M, N)[0]
    return NORMALIZER * singular_series_partial(system, series_cutoff).value * integral
