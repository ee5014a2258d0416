import cmath
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from ninecubes import arith
from ninecubes.characters import DirichletCharacter, character_group
from ninecubes.errors import DomainError

MODULI = (1, 2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64, 128, 256)


def brute_dlog(q):
    """Each unit's exponents on the unit group's generators, by brute force.

    Generator i is read from the power table as the unit at the unit vector
    e_i; then every exponent vector is powered out, and each unit must be
    reached exactly once.
    """
    ug = arith.unit_group(q)
    r = len(ug.orders)
    gens = [int(ug.units[tuple(int(j == i) for j in range(r))]) for i in range(r)]
    logs = {}
    for vec in product(*(range(m) for m in ug.orders)):
        k = math.prod(pow(g, t, q) for g, t in zip(gens, vec)) % q
        assert k not in logs
        logs[k] = vec
    assert len(logs) == arith.euler_phi(q)
    return logs


def brute_value(chi, k, logs):
    """chi(k) from an exact angle, 0 off the units."""
    vec = logs.get(k % chi.modulus)
    if vec is None:
        return 0j
    orders = arith.unit_group(chi.modulus).orders
    angle = sum(Fraction(e * t, m) for e, t, m in zip(chi.exponents, vec, orders)) % 1
    return cmath.exp(2j * cmath.pi * float(angle))


def test_group_size_and_principal_first():
    for q in MODULI:
        group = character_group(q)
        assert len(group) == arith.euler_phi(q)
        assert group[0].is_principal
        assert len({chi.exponents for chi in group}) == len(group)


def test_row_orthogonality():
    # sum over residues: phi(q) for the principal character, 0 otherwise
    for q in MODULI:
        for chi in character_group(q):
            total = chi.value_table().sum()
            want = arith.euler_phi(q) if chi.is_principal else 0.0
            assert abs(total - want) <= 1e-9 * q


def test_column_orthogonality():
    for q in (5, 8, 9, 16, 49, 256):
        total = sum(chi.value_table() for chi in character_group(q))
        want = np.where(np.arange(q) == 1, arith.euler_phi(q), 0.0)
        assert np.abs(total - want).max() <= 1e-9 * q


def test_multiplicative_values():
    rng = np.random.default_rng(211)
    for q in (7, 9, 16, 49, 256):
        group = character_group(q)
        for _ in range(40):
            table = group[rng.integers(0, len(group))].value_table()
            a = int(rng.integers(0, q))
            b = int(rng.integers(0, q))
            assert abs(table[a * b % q] - table[a] * table[b]) < 1e-12


def test_value_table_matches_brute_force_dlog():
    for q in (1, 2, 4, 7, 8, 9, 16, 25, 27, 32, 64, 128, 256):
        logs = brute_dlog(q)
        for chi in character_group(q):
            table = chi.value_table()
            assert table.shape == (q,)
            for k in range(q):
                assert abs(table[k] - brute_value(chi, k, logs)) < 1e-12


def test_composite_moduli_rejected():
    for q in (12, 35, 63):
        with pytest.raises(DomainError):
            character_group(q)
        with pytest.raises(DomainError):
            DirichletCharacter(q, (0, 0))


def test_bad_exponents_rejected():
    with pytest.raises(DomainError):
        DirichletCharacter(7, (6, 0))
    with pytest.raises(DomainError):
        DirichletCharacter(7, (99,))


def test_index_is_the_position_in_the_group():
    for q in MODULI + (337, 343):
        for pos, chi in enumerate(character_group(q)):
            assert chi.index == pos and type(chi.index) is int
