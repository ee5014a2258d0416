"""Dirichlet characters mod a prime power q, represented by exponent vectors.

A character is stored as its exponents x_i on the generators g_i of (Z/qZ)*
that `arith.unit_group` picks.  Its value at the unit prod_i g_i^t_i, entry
(t_1, ..., t_r) of the group's power table, is e(sum_i x_i t_i / m_i), m_i
the order of g_i.  The angle is an integer numerator over the lcm of the
orders, reduced before one lookup into `unit_roots`, so no drift accumulates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    # position in character_group(q): the exponents as mixed-radix digits
    index: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        exps = tuple(map(arith.integral, self.exponents))
        orders = arith.unit_group(self.modulus).orders
        if len(exps) != len(orders) or not all(0 <= e < m for e, m in zip(exps, orders)):
            raise DomainError(f"exponents {exps} do not fit the generator orders {orders}")
        index = 0
        for e, m in zip(exps, orders):
            index = index * m + e
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "index", index)

    @property
    def is_principal(self) -> bool:
        return self.index == 0

    def value_table(self) -> np.ndarray:
        """chi(k) for k = 0..q-1 as a complex array, 0 where gcd(k, q) > 1."""
        units = arith.unit_group(self.modulus).units.ravel()
        tab = np.zeros(self.modulus, dtype=np.complex128)
        tab[units] = character_values(self.modulus, self.index, self.index + 1, np.arange(len(units)))[0]
        return tab


def character_values(q: int, start: int, stop: int, pos: np.ndarray) -> np.ndarray:
    """chi at flat positions pos of the unit group's power table, one row per character
    start..stop-1 of character_group(q): index and pos both read as exponent vectors."""
    orders = arith.unit_group(q).orders
    lam = math.lcm(*orders)
    idx = np.arange(start, stop, dtype=np.int64)[:, None]
    num = np.zeros((stop - start, len(pos)), dtype=np.int64)
    for m in reversed(orders):
        (idx, x), (pos, t) = np.divmod(idx, m), np.divmod(pos, m)
        num += x * t * (lam // m)
    num %= lam
    return unit_roots(lam)[num]


def character_group(q: int) -> list[DirichletCharacter]:
    """All phi(q) characters mod a prime power q, principal first.  Each is set
    from the exponents and index enumerated here, not validated again."""
    orders = arith.unit_group(q).orders
    group = []
    for index, vec in enumerate(product(*(range(m) for m in orders))):
        group.append(chi := object.__new__(DirichletCharacter))
        chi.__dict__.update(modulus=q, exponents=vec, index=index)
    return group
