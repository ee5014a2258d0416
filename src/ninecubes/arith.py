"""Primes, factorization, multiplicative functions, and unit groups mod p^e.

The unit group (Z/p^eZ)* is cyclic for odd p and for 2 and 4, and is the
product of the subgroups generated by -1 and 5 at 2^e with e >= 3.  It is
held as one table of generator powers, indexed by each unit's exponent
vector, so that character evaluation elsewhere is no repeated powering.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import DomainError, NumericIntegrityError, ResourceLimitError

SIEVE_CAP = 10**8
UNIT_GROUP_CAP = 10**6

Factorization = tuple[tuple[int, int], ...]

# (limit, primes <= limit) of the largest sieve so far: one tuple, so that a
# reader in another thread never pairs one sieve's limit with another's array
_sieve: tuple[int, np.ndarray] = (0, np.empty(0, dtype=np.int64))
_sieve_lock = threading.Lock()


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as a read-only int64 view of the largest sieve so
    far, which is kept and reused.  Exact integer arithmetic reads .tolist() of the view."""
    if limit > SIEVE_CAP:
        raise ResourceLimitError(f"sieve limit {limit} exceeds cap {SIEVE_CAP}")
    global _sieve
    known_limit, known = _sieve
    if limit > known_limit:
        mask = np.ones(limit + 1, dtype=bool)
        mask[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if mask[p]:
                mask[p * p :: p] = False
        known = np.flatnonzero(mask).astype(np.int64, copy=False)
        known.flags.writeable = False
        with _sieve_lock:
            # a smaller sieve that finishes last must not replace a larger one
            if limit > _sieve[0]:
                _sieve = (limit, known)
    return known[: known.searchsorted(limit, "right")]


@lru_cache(maxsize=8192)
def factorize(n: int) -> Factorization:
    """Prime factorization ((p, e), ...) with p ascending, cached.  Requires n >= 1."""
    if n < 1:
        raise DomainError(f"factorize requires n >= 1, got {n}")
    out: list[tuple[int, int]] = []
    m = int(n)  # a cached numpy integer would reach every later caller
    primes = sieve_primes(max(2, math.isqrt(m)))  # m < 2^63, as the sieve's cap bounds its root
    for p in primes[m % primes == 0].tolist():
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        out.append((p, e))
    if m > 1:  # what is left has no prime factor up to isqrt(n): it is prime
        out.append((m, 1))
    return tuple(out)


def integral(x) -> int:
    """x as an int, refused unless it is integral."""
    try:
        if x == int(x):
            return int(x)
    except (TypeError, ValueError, OverflowError):  # int() of None, a str, nan, inf
        pass
    raise DomainError(f"expected an integer, got {x!r}")


def check_window(M: int, N: int) -> tuple[int, int]:
    """The window (M, N] as ints, refused unless 0 < M < N and both ends are integral."""
    if not 0 < M < N:
        raise DomainError(f"need 0 < M < N, got M={M}, N={N}")
    return integral(M), integral(N)


def window_primes(mag: int, M: int, N: int) -> np.ndarray:
    """The primes p with M < mag p^3 <= N, for ints mag >= 1 and M >= 0, as a read-only int64
    view (.tolist() for exact arithmetic): those in (icbrt(M // mag), icbrt(N // mag)], as
    mag p^3 > M iff p^3 > M // mag.  The sieve's cap refuses a root past SIEVE_CAP."""
    if mag < 1:
        raise DomainError(f"window_primes requires mag >= 1, got {mag}")
    top = icbrt(N // mag)
    primes = sieve_primes(top)
    # clamped to top, so that no int past int64 reaches numpy when M passes N
    return primes[primes.searchsorted(min(icbrt(M // mag), top), "right") :]


def is_prime(n: int) -> bool:
    return n > 1 and factorize(n) == ((n, 1),)


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
    # integer Newton from 1 << ceil(bits / 3), which is at least the root:
    # each step stays at or above the floor of the root and drops strictly
    # until it reaches it
    r = 1 << -(-n.bit_length() // 3)
    while True:
        s = (2 * r + n // (r * r)) // 3
        if s >= r:
            return r
        r = s


def _primitive_root(p: int) -> int:
    """Smallest primitive root mod an odd prime p."""
    order_factors = [q for q, _ in factorize(p - 1)]
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in order_factors):
            return g
        g += 1


def _generators(p: int, e: int) -> list[tuple[int, int]]:
    """(generator, order) pairs of (Z/p^eZ)*: each unit is one product of their powers."""
    pe = p**e
    if p == 2:
        # trivial at 2, -1 alone at 4, -1 and 5 from 8 on
        return [(pe - 1, 2), (5, pe // 4)][: max(0, e - 1)]
    g = _primitive_root(p)
    if e > 1 and pow(g, p - 1, p * p) == 1:
        g += p
    return [(g, pe // p * (p - 1))]


def _powers(g: int, order: int, pe: int) -> np.ndarray:
    """g^t mod pe for t = 0..order-1."""
    out = [1] * order
    u = 1
    for t in range(1, order):
        u = u * g % pe
        out[t] = u
    return np.array(out, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class UnitGroup:
    """(Z/qZ)* at a prime power q: units[t] = prod_i g_i^t_i mod q, axis i of length orders[i]."""

    modulus: int
    orders: tuple[int, ...]
    units: np.ndarray


@lru_cache(maxsize=2048)
def _unit_group(q: int) -> UnitGroup:
    factors = factorize(q)
    if len(factors) > 1:
        raise DomainError(f"unit groups are built at prime-power moduli only, got {q}")
    gens = _generators(*factors[0]) if factors else []
    units = np.asarray(reduce(np.multiply.outer, [_powers(g, m, q) for g, m in gens], 1) % q)
    if np.count_nonzero(np.diff(np.sort(units, axis=None))) + 1 != euler_phi(q):  # distinct entries
        raise NumericIntegrityError(f"generator powers do not reach all {euler_phi(q)} units mod {q}")
    units.flags.writeable = False
    return UnitGroup(modulus=q, orders=tuple(m for _, m in gens), units=units)


def unit_group(q: int) -> UnitGroup:
    """(Z/qZ)* for a prime power (or 1) q <= UNIT_GROUP_CAP; a composite q is refused."""
    if q < 1:
        raise DomainError(f"unit_group requires q >= 1, got {q}")
    if q > UNIT_GROUP_CAP:
        raise ResourceLimitError(f"modulus {q} exceeds unit group cap {UNIT_GROUP_CAP}")
    return _unit_group(q)

