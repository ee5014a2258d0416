"""Singular series and singular integral for the nine-cube system.

Two independent routes to the series: the partial sum of A(q) over q <= x,
and the Euler product of s(p) = 1 + A(p) with the 3-adic factor summed to
exponent 3.  A(q) vanishes unless q is a power of 3 up to 27 times a
squarefree number prime to 3.  The partial sum finds that support with one
sieve over [1, x], which clears the multiples of 81 and of p^2 for each
prime p != 3.  Up to DEFINITION_ROUTE_MAX, A(q) and s(p) come from the
definition, in one blocked pass over the support cached per system and read
by both routes, each s(p) checked against the exact count; above it, from
exact counts alone: A(q) as the product of prime-power terms over one
factorization of q, and s(p) = 1 + A(p).

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

import numpy as np

from . import arith, convolve
from .errors import DomainError, NumericIntegrityError, ResourceLimitError
from .localdata import CoefficientSystem, euler_factor, prime_power_term, series_term, series_terms

SERIES_X_CAP = 10**4
EULER_PMAX_CAP = 10**4
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
    """Bound for the neglected product over p > pmax, via |A(p)| <= 40 p^(-9/2)."""
    return math.exp(40.0 * (2.0 / 7.0) * pmax ** (-3.5)) - 1.0


def _support(x: int) -> tuple[int, ...]:
    """The q <= x with A(q) possibly nonzero: 3^e m, e <= 3, m squarefree and prime to 3."""
    support = np.ones(x + 1, dtype=bool)
    support[0] = False
    for p in arith.sieve_primes(math.isqrt(x)):
        step = 81 if p == 3 else p * p
        support[step::step] = False
    return tuple(np.flatnonzero(support).tolist())


def singular_series_euler(system: CoefficientSystem, pmax: int) -> float:
    """Euler route: prod_{p <= pmax, p != 3} s(p) times the 3-adic factor.

    Up to DEFINITION_ROUTE_MAX, A(p) is read from the series terms the partial
    sum at cutoff pmax caches, and each factor passes the s(p) = p N(p) /
    phi(p)^9 cross-check inside euler_factor, with N(p) exact in closed form
    from cubic Gauss sums.  Above it, s(p) = 1 + A(p) with A(p) from that count.
    """
    if pmax < 3:
        raise DomainError(f"pmax must be >= 3, got {pmax}")
    if pmax > EULER_PMAX_CAP:
        raise ResourceLimitError(f"pmax {pmax} exceeds cap {EULER_PMAX_CAP}")
    moduli = _support(min(pmax, DEFINITION_ROUTE_MAX))
    term = dict(zip(moduli, series_terms(moduli, system)))
    value = 1.0 + series_term(3, system) + series_term(9, system) + series_term(27, system)
    for p in arith.sieve_primes(pmax):
        if p > DEFINITION_ROUTE_MAX:
            value *= 1.0 + prime_power_term(p, 1, system)
        elif p != 3:
            value *= euler_factor(p, system, term[p])
    return value


def singular_series_partial(system: CoefficientSystem, x: int) -> SeriesReport:
    """Partial-sum route: sum of A(q) over the support q <= x."""
    if x < 1:
        raise DomainError(f"cutoff must be >= 1, got {x}")
    if x > SERIES_X_CAP:
        raise ResourceLimitError(f"cutoff {x} exceeds cap {SERIES_X_CAP}")
    support = _support(x)
    definition = support[: bisect.bisect_right(support, DEFINITION_ROUTE_MAX)]
    terms = list(zip(definition, series_terms(definition, system)))
    power_term = functools.cache(functools.partial(prime_power_term, system=system))
    for q in support[len(definition) :]:
        terms.append((q, math.prod(power_term(p, e) for p, e in arith.factorize(q))))
    value = math.fsum(t for _, t in terms)
    # empirical tail scale C/x, calibrated on the computed prefix
    tail = 0.0
    for frac in (4, 2):
        x0 = x // frac
        if x0 >= 1:
            seen = math.fsum(t for q, t in terms if q > x0)
            tail = max(tail, abs(seen) * x0 / x)
    pmax = min(x, EULER_PMAX_CAP)
    euler = singular_series_euler(system, max(pmax, 3))
    return SeriesReport(
        cutoff=x,
        value=value,
        terms=tuple(terms),
        tail_estimate=tail,
        euler_pmax=max(pmax, 3),
        euler_value=euler,
        euler_tail_factor=_euler_tail_factor(max(pmax, 3)),
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
    if not 0 < M < N:
        raise DomainError(f"need 0 < M < N, got M={M}, N={N}")
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
