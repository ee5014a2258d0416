"""Primes, factorization, multiplicative functions, and unit groups mod q.

The unit group (Z/qZ)* is decomposed into cyclic components, one per odd
prime power dividing q plus the usual one- or two-generator pieces at
powers of 2.  Discrete logarithms are precomputed as flat tables so that
character evaluation elsewhere is table lookup, not repeated powering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericIntegrityError, ResourceLimitError

SIEVE_CAP = 10**8
UNIT_GROUP_CAP = 10**6

Factorization = list[tuple[int, int]]

_sieve_limit = 0
_sieve_primes: list[int] = []


def sieve_primes(limit: int, cap: int = SIEVE_CAP) -> list[int]:
    """All primes <= limit, ascending.  The largest sieve is kept and reused."""
    if limit > cap:
        raise ResourceLimitError(f"sieve limit {limit} exceeds cap {cap}")
    global _sieve_limit, _sieve_primes
    if limit <= _sieve_limit:
        # bisect the cached list instead of resieving
        import bisect

        k = bisect.bisect_right(_sieve_primes, limit)
        return _sieve_primes[:k]
    if limit < 2:
        return []
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    _sieve_primes = [int(p) for p in np.flatnonzero(mask)]
    _sieve_limit = limit
    return list(_sieve_primes)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in sieve_primes(max(2, math.isqrt(n))):
        if p * p > n:
            break
        if n % p == 0:
            return False
    return True


def factorize(n: int) -> Factorization:
    """Prime factorization [(p, e), ...] with p ascending.  Requires n >= 1."""
    if n < 1:
        raise DomainError(f"factorize requires n >= 1, got {n}")
    out: Factorization = []
    m = n
    for p in sieve_primes(max(2, math.isqrt(n))):
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    if m > 1:
        out.append((m, 1))
    return out


def euler_phi(n: int) -> int:
    if n < 1:
        raise DomainError(f"euler_phi requires n >= 1, got {n}")
    val = n
    for p, _ in factorize(n):
        val = val // p * (p - 1)
    return val


def icbrt(n: int) -> int:
    """Exact floor of the real cube root of n >= 0."""
    if n < 0:
        raise DomainError("icbrt requires n >= 0")
    if n == 0:
        return 0
    r = round(n ** (1.0 / 3.0))
    while r**3 > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return r


def _primitive_root(p: int) -> int:
    """Smallest primitive root mod an odd prime p."""
    if p == 2:
        return 1
    order_factors = [q for q, _ in factorize(p - 1)]
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in order_factors):
            return g
        g += 1


@dataclass(frozen=True, eq=False)
class CyclicComponent:
    """One cyclic factor of (Z/qZ)*, attached to the prime power p^e | q.

    dlog maps residues mod p^e to the exponent of the generator, -1 at
    residues that are not units or that belong to the other component at 2^e.
    lifted is the generator lifted to a residue mod q (1 mod q / p^e).
    """

    modulus: int  # p^e
    order: int
    lifted: int  # residue mod q
    dlog: np.ndarray


@dataclass(frozen=True, eq=False)
class UnitGroup:
    """Cyclic decomposition of (Z/qZ)* with flat discrete-log tables."""

    modulus: int
    phi: int
    components: tuple[CyclicComponent, ...]

    def exponent_vector(self, k: int) -> tuple[int, ...] | None:
        """Exponents of k on the component generators, or None if gcd(k, q) > 1."""
        q = self.modulus
        k %= q
        if q == 1:
            return ()
        if math.gcd(k, q) != 1:
            return None
        return tuple(int(c.dlog[k % c.modulus]) for c in self.components)

    def unit_from_exponents(self, vec: tuple[int, ...]) -> int:
        """Inverse of exponent_vector: the unit with the given exponents."""
        if len(vec) != len(self.components):
            raise DomainError("exponent vector has the wrong length")
        u = 1
        for x, c in zip(vec, self.components):
            u = u * pow(c.lifted, x % c.order, self.modulus) % self.modulus
        return u


def _components_for(p: int, e: int, q: int) -> list[tuple[int, int, int, int]]:
    """(modulus, generator, order, lifted) tuples for the factor at p^e."""
    pe = p**e
    cof = q // pe
    # residue that is g mod p^e and 1 mod q/p^e
    def lift(g: int) -> int:
        if cof == 1:
            return g % q
        inv = pow(cof, -1, pe)
        return (1 + cof * ((g - 1) * inv % pe)) % q

    if p == 2:
        if e == 1:
            return []
        if e == 2:
            return [(4, 3, 2, lift(3))]
        return [
            (pe, pe - 1, 2, lift(pe - 1)),
            (pe, 5, pe // 4, lift(5)),
        ]
    g = _primitive_root(p)
    if e > 1 and pow(g, p - 1, p * p) == 1:
        g += p
    order = pe // p * (p - 1)
    return [(pe, g % pe, order, lift(g))]


def _two_power_dlogs(pe: int) -> tuple[np.ndarray, np.ndarray]:
    """Discrete logs mod 2^e (e >= 3) on generators -1 and 5."""
    sign = np.full(pe, -1, dtype=np.int64)
    expo = np.full(pe, -1, dtype=np.int64)
    u = 1
    for t in range(pe // 4):
        sign[u] = 0
        expo[u] = t
        sign[pe - u] = 1
        expo[pe - u] = t
        u = u * 5 % pe
    return sign, expo


@lru_cache(maxsize=2048)
def _unit_group(q: int) -> UnitGroup:
    comps: list[CyclicComponent] = []
    for p, e in factorize(q):
        specs = _components_for(p, e, q)
        if p == 2 and e >= 3:
            sign, expo = _two_power_dlogs(p**e)
            tables = [sign, expo]
        else:
            tables = []
            for pe, g, order, _ in specs:
                dlog = np.full(pe, -1, dtype=np.int64)
                u = 1
                for t in range(order):
                    dlog[u] = t
                    u = u * g % pe
                tables.append(dlog)
        for (pe, _, order, lifted), dlog in zip(specs, tables):
            comps.append(CyclicComponent(modulus=pe, order=order, lifted=lifted, dlog=dlog))
    phi = euler_phi(q)
    if math.prod(c.order for c in comps) != phi:
        raise NumericIntegrityError(f"component orders of (Z/{q}Z)* do not multiply to phi = {phi}")
    return UnitGroup(modulus=q, phi=phi, components=tuple(comps))


def unit_group(q: int, cap: int = UNIT_GROUP_CAP) -> UnitGroup:
    """Cyclic decomposition of (Z/qZ)* for 1 <= q <= cap."""
    if q < 1:
        raise DomainError(f"unit_group requires q >= 1, got {q}")
    if q > cap:
        raise ResourceLimitError(f"modulus {q} exceeds unit group cap {cap}")
    return _unit_group(q)


def crt(residues: list[int], moduli: list[int]) -> int:
    """Solve x = r_i mod m_i for pairwise coprime m_i; result in [0, prod m_i)."""
    x, m = 0, 1
    for r, mi in zip(residues, moduli):
        t = (r - x) * pow(m, -1, mi) % mi
        x += m * t
        m *= mi
    return x % m
