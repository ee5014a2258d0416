"""Major and minor arc dissection, held as scalars.

For window size N and coefficient bound D the parameters are

    L = log N,  P = floor((N/D)^(1/10 - eps)),  Q = floor(N / (P L^c)),

and the major arc at a/q (q <= P, 1 <= a <= q, gcd(a, q) = 1) is the
closed interval [a/q - 1/(qQ), a/q + 1/(qQ)].  All arcs live inside the
unit window [1/Q, 1 + 1/Q]; a point alpha is classified after reducing
it mod 1 into that window.  2P < Q makes the arcs pairwise disjoint.

Count sum phi(q) and measure (2/Q) sum phi(q)/q come from phi; a/q is a convergent
of any point within 1/(qQ) < 1/(2q^2) of it (Legendre; Hardy and Wright, Thm 184),
so `classify` walks the convergents.  `major_mask` classifies a float array
in one pass per q and hands `classify` only the points it cannot decide.
The arc list is built only when read.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np

from . import arith
from .errors import DomainError, NumericIntegrityError, ResourceLimitError

P_CAP = 10**3


def _convergents(x: Fraction) -> Iterator[tuple[int, int]]:
    """Convergents p_k/q_k of x as (p_k, q_k), from floor(x)/1 to x itself."""
    num, den = x.numerator, x.denominator
    p_prev, q_prev, p, q = 1, 0, num // den, 1
    n, d = num - p * den, den  # remainder x - a0 = n/d
    yield p, q
    while n:
        a = d // n  # next partial quotient of the reversed remainder
        p, q, p_prev, q_prev = a * p + p_prev, a * q + q_prev, p, q
        n, d = d - a * n, n
        yield p, q


def dirichlet_approx(alpha: float | Fraction, Q: int) -> tuple[int, int]:
    """(a, q) with 1 <= q <= Q, gcd(a, q) = 1 and |q alpha - a| <= 1/Q.

    Runs the continued fraction of alpha in exact rational arithmetic and
    returns the last convergent with denominator at most Q.
    """
    if Q < 1:
        raise DomainError(f"Q must be >= 1, got {Q}")
    x = Fraction(alpha)
    for p, q in _convergents(x):
        if q > Q:
            break
        a_best, q_best = p, q
    if math.gcd(a_best, q_best) != 1 and a_best != 0:
        raise NumericIntegrityError(f"convergent {a_best}/{q_best} is not in lowest terms")
    if abs(q_best * x - a_best) > Fraction(1, Q):
        raise NumericIntegrityError(f"|{q_best} alpha - {a_best}| exceeds 1/{Q}")
    return a_best, q_best


@dataclass(frozen=True)
class MajorArc:
    q: int
    a: int
    lo: Fraction
    hi: Fraction


@dataclass(frozen=True, eq=False)
class ArcDissection:
    N: int
    D: int
    epsilon: float
    c: float
    P: int
    Q: int
    arc_count: int
    major_measure: Fraction

    @property
    def arcs(self) -> tuple[MajorArc, ...]:
        """Every major arc in ascending order, built anew on each read."""
        Q = self.Q
        arcs = (
            MajorArc(q, a, Fraction(a * Q - 1, q * Q), Fraction(a * Q + 1, q * Q))
            for q in range(1, self.P + 1) for a in range(1, q + 1) if math.gcd(a, q) == 1
        )
        return tuple(sorted(arcs, key=lambda arc: arc.lo))


def build_dissection(N: int, D: int, epsilon: float = 0.01, c: float = 1.0) -> ArcDissection:
    """Major arc parameters, count and measure for the given window size and coefficient bound."""
    if N < 16:
        raise DomainError(f"window size too small for a dissection, got N={N}")
    if D < 2:
        raise DomainError(f"coefficient bound must be >= 2, got D={D}")
    if not 0 < epsilon < 0.1:
        raise DomainError(f"epsilon must lie in (0, 0.1), got {epsilon}")
    L = math.log(N)
    # no float N / D: a window past the float range gets its P and Q too
    P = max(1, int((Decimal(N) / D) ** Decimal(0.1 - epsilon)))
    if P > P_CAP:
        raise ResourceLimitError(f"P = {P} exceeds the arc cap {P_CAP}")
    try:
        scale = P * L**c
    except OverflowError:
        scale = math.inf
    if not 0 < scale < math.inf:  # NaN too
        raise DomainError(f"P L^c must be a positive finite float, got c={c}")
    Q = N // Fraction(scale)
    if 2 * P >= Q:
        raise DomainError(f"arc parameters degenerate: 2P = {2 * P} >= Q = {Q}")
    phis = [arith.euler_phi(q) for q in range(1, P + 1)]
    measure = Fraction(2, Q) * sum(Fraction(phi, q) for q, phi in enumerate(phis, 1))
    return ArcDissection(N, D, epsilon, c, P, Q, arc_count=sum(phis), major_measure=measure)


def normalize(alpha: float | Fraction, dissection: ArcDissection) -> Fraction:
    """Reduce alpha mod 1 into the unit window [1/Q, 1 + 1/Q)."""
    x = Fraction(alpha)
    x -= math.floor(x)
    if x < Fraction(1, dissection.Q):
        x += 1
    return x


def classify(alpha: float | Fraction, dissection: ArcDissection) -> tuple[int, int] | None:
    """(q, a) of the major arc containing alpha, or None on the minor arcs."""
    x = normalize(alpha, dissection)
    num, den = x.numerator, x.denominator
    for a, q in _convergents(x):
        if q > dissection.P:
            break
        # |x - a/q| <= 1/(qQ), in integers
        if a >= 1 and abs(q * num - a * den) * dissection.Q <= den:
            return q, a
    return None


def major_mask(alphas: np.ndarray, dissection: ArcDissection) -> np.ndarray:
    """Whether `classify` puts each float of alphas on a major arc.

    For each q <= P one float pass takes d = |q alpha - rint(q alpha)|,
    which is off the exact distance by at most q |alpha| 2^-53, and
    compares it with 1/Q.  A point within a guard band of that error
    around 1/Q for some q, and major for none, gets the exact `classify`;
    the ends of the unit window lie in the band of q = 1.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    major = np.zeros(len(alphas), dtype=bool)
    unsure = np.zeros(len(alphas), dtype=bool)
    inv_q = 1 / dissection.Q
    scale = float(np.abs(alphas).max(initial=0.0)) + 1.0
    for q in range(1, dissection.P + 1):
        d = q * alphas
        d -= np.rint(d)
        np.abs(d, out=d)
        band = (q * scale + 1.0) * 2.0**-51
        major |= d < inv_q - band
        unsure |= np.abs(d - inv_q) <= band
    for i in np.flatnonzero(unsure & ~major):
        major[i] = classify(float(alphas[i]), dissection) is not None
    return major
