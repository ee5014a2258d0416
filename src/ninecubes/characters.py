"""Dirichlet characters mod a prime power q, represented by exponent vectors.

A character is stored as its exponents on the generators of (Z/qZ)* that
`arith.unit_group` picks.  Its value at a unit k is e(sum_i x_i t_i / m_i),
where t_i is the discrete log of k on generator i of order m_i.  The angle
is summed as an integer numerator over the lcm of the orders and reduced
before one lookup into `unit_roots`, so no drift accumulates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from . import arith
from .errors import DomainError


# Read by character_values at the lcm of the generator orders, once per
# block of C_chi tables or value_table.  The twisted sums B(q) and F(q) lay
# out the roots of their moduli themselves and read none of these tables.
@lru_cache(maxsize=1024)
def unit_roots(m: int) -> np.ndarray:
    """Array of exp(2 pi i k/m) for k = 0..m-1 (read-only)."""
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    roots.flags.writeable = False
    return roots


@dataclass(frozen=True)
class DirichletCharacter:
    """Character mod a prime power `modulus` with the given generator exponents."""

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
    def is_principal(self) -> bool:
        return all(e == 0 for e in self.exponents)

    @property
    def index(self) -> int:
        """Position in character_group(q): the exponents as mixed-radix digits."""
        orders = [c.order for c in arith.unit_group(self.modulus).components]
        return int(np.ravel_multi_index(self.exponents, orders))

    def value_table(self) -> np.ndarray:
        """chi(k) for k = 0..q-1 as a complex array, 0 where gcd(k, q) > 1."""
        comps = arith.unit_group(self.modulus).components
        # a trivial group (q = 1 or 2) has no generator and one unit, q - 1
        units = np.flatnonzero(comps[0].dlog >= 0) if comps else np.array([self.modulus - 1])
        tab = np.zeros(self.modulus, dtype=np.complex128)
        tab[units] = character_values(self.modulus, self.index, self.index + 1, units)[0]
        return tab


def character_values(q: int, start: int, stop: int, k: np.ndarray) -> np.ndarray:
    """chi(k) at the units k for characters start..stop-1 of character_group(q),
    one row each, the exponents decoded from the index: no group list is built."""
    comps = arith.unit_group(q).components
    lam = math.lcm(*(c.order for c in comps))
    idx = np.arange(start, stop, dtype=np.int64)[:, None]
    num = np.zeros((stop - start, len(k)), dtype=np.int64)
    for c in reversed(comps):
        num += idx % c.order * (lam // c.order) * c.dlog[k]
        idx //= c.order
    num %= lam
    return unit_roots(lam)[num]


def character_group(q: int) -> list[DirichletCharacter]:
    """All phi(q) characters mod a prime power q, principal first."""
    orders = [c.order for c in arith.unit_group(q).components]
    return [DirichletCharacter(q, vec) for vec in product(*(range(m) for m in orders))]
