"""Dirichlet characters mod q, represented by exponent vectors.

A character is stored as its exponents on the cyclic generators of
(Z/qZ)*.  Values are roots of unity; every evaluation goes through an
exact rational angle reduced mod 1 before a single trigonometric call,
so no drift accumulates from repeated multiplication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from . import arith
from .errors import DomainError

VALUE_TABLE_CACHE_MAX_Q = 10**4


def e_of(x: float) -> complex:
    """exp(2 pi i x), with the argument reduced mod 1 first."""
    if not math.isfinite(x):
        raise DomainError(f"e_of requires a finite argument, got {x}")
    r = x % 1.0
    return complex(math.cos(2.0 * math.pi * r), math.sin(2.0 * math.pi * r))


@lru_cache(maxsize=512)
def unit_roots(m: int) -> np.ndarray:
    """Array of exp(2 pi i k/m) for k = 0..m-1 (read-only)."""
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    roots.flags.writeable = False
    return roots


@dataclass(frozen=True)
class DirichletCharacter:
    """Character mod `modulus` with the given generator exponents."""

    modulus: int
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        ug = arith.unit_group(self.modulus)
        if len(self.exponents) != len(ug.components):
            raise DomainError("exponent vector does not match the unit group")
        for e, c in zip(self.exponents, ug.components):
            if not 0 <= e < c.order:
                raise DomainError(f"exponent {e} out of range for order {c.order}")

    @property
    def group(self) -> arith.UnitGroup:
        return arith.unit_group(self.modulus)

    def angle(self, k: int) -> Fraction | None:
        """Exact angle a with chi(k) = e(a), or None when gcd(k, q) > 1."""
        vec = self.group.exponent_vector(k)
        if vec is None:
            return None
        total = Fraction(0)
        for e, x, c in zip(self.exponents, vec, self.group.components):
            total += Fraction(e * x, c.order)
        return total % 1

    def __call__(self, k: int) -> complex:
        a = self.angle(k)
        if a is None:
            return 0j
        return e_of(float(a))

    @property
    def is_principal(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def value_table(self) -> np.ndarray:
        """chi(k) for k = 0..q-1 as a complex array (cached for small q)."""
        return _value_table(self)


def character_group(q: int, cap: int = arith.UNIT_GROUP_CAP) -> list[DirichletCharacter]:
    """All phi(q) characters mod q, principal first."""
    ug = arith.unit_group(q, cap=cap)
    orders = [c.order for c in ug.components]
    return [DirichletCharacter(q, vec) for vec in product(*(range(m) for m in orders))]


_table_cache: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}


def _value_table(chi: DirichletCharacter) -> np.ndarray:
    key = (chi.modulus, chi.exponents)
    tab = _table_cache.get(key)
    if tab is not None:
        return tab
    tab = _build_value_table(chi)
    tab.flags.writeable = False
    if chi.modulus <= VALUE_TABLE_CACHE_MAX_Q:
        _table_cache[key] = tab
    return tab


def _build_value_table(chi: DirichletCharacter) -> np.ndarray:
    q = chi.modulus
    ug = chi.group
    if q == 1:
        return np.ones(1, dtype=np.complex128)
    ks = np.arange(q, dtype=np.int64)
    units = np.gcd(ks, q) == 1
    lam = math.lcm(*(c.order for c in ug.components))
    num = np.zeros(q, dtype=np.int64)
    for e, c in zip(chi.exponents, ug.components):
        num[units] += e * c.dlog[ks[units] % c.modulus] * (lam // c.order)
    num %= lam
    tab = np.zeros(q, dtype=np.complex128)
    tab[units] = unit_roots(lam)[num[units]]
    return tab
