"""Major and minor arc dissection with exact rational endpoints.

For window size N and coefficient bound D the parameters are

    L = log N,  P = floor((N/D)^(1/10 - eps)),  Q = floor(N / (P L^c)),

and the major arc at a/q (q <= P, 1 <= a <= q, gcd(a, q) = 1) is the
closed interval [a/q - 1/(qQ), a/q + 1/(qQ)].  All arcs live inside the
unit window [1/Q, 1 + 1/Q]; a point alpha is classified after reducing
it mod 1 into that window.  2P < Q makes the arcs pairwise disjoint.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .errors import DomainError, NumericIntegrityError, ResourceLimitError

P_CAP = 10**3


def dirichlet_approx(alpha: float | Fraction, Q: int) -> tuple[int, int]:
    """(a, q) with 1 <= q <= Q, gcd(a, q) = 1 and |q alpha - a| <= 1/Q.

    Runs the continued fraction of alpha in exact rational arithmetic and
    returns the last convergent with denominator at most Q.
    """
    if Q < 1:
        raise DomainError(f"Q must be >= 1, got {Q}")
    x = Fraction(alpha)
    # convergents p_k/q_k of x
    num, den = x.numerator, x.denominator
    p_prev, q_prev = 1, 0
    p_cur, q_cur = int(math.floor(x)), 1
    n, d = num - p_cur * den, den  # remainder x - a0 = n/d
    while q_cur <= Q and n != 0:
        # next partial quotient of the reversed remainder
        a = d // n
        p_nxt = a * p_cur + p_prev
        q_nxt = a * q_cur + q_prev
        n, d = d - a * n, n
        if q_nxt > Q:
            break
        p_prev, q_prev = p_cur, q_cur
        p_cur, q_cur = p_nxt, q_nxt
    a_best, q_best = p_cur, q_cur
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

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True, eq=False)
class ArcDissection:
    N: int
    D: int
    epsilon: float
    c: float
    P: int
    Q: int
    arcs: tuple[MajorArc, ...]
    major_measure: Fraction
    arc_lows: tuple[Fraction, ...]  # arc.lo in arc order, for bisection


def build_dissection(N: int, D: int, epsilon: float = 0.01, c: float = 1.0) -> ArcDissection:
    """Major arc family for the given window size and coefficient bound."""
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
    Q = N // Fraction(P * L**c)
    if 2 * P >= Q:
        raise DomainError(f"arc parameters degenerate: 2P = {2 * P} >= Q = {Q}")
    arcs: list[MajorArc] = []
    measure = Fraction(0)
    for q in range(1, P + 1):
        half = Fraction(1, q * Q)
        for a in range(1, q + 1):
            if math.gcd(a, q) != 1:
                continue
            center = Fraction(a, q)
            arcs.append(MajorArc(q=q, a=a, lo=center - half, hi=center + half))
            measure += 2 * half
    arcs.sort(key=lambda arc: arc.lo)
    return ArcDissection(
        N=N, D=D, epsilon=epsilon, c=c, P=P, Q=Q, arcs=tuple(arcs), major_measure=measure,
        arc_lows=tuple(arc.lo for arc in arcs),
    )


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
    i = bisect.bisect_right(dissection.arc_lows, x)
    if i:
        arc = dissection.arcs[i - 1]
        if arc.contains(x):
            return arc.q, arc.a
    return None
