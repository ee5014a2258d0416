import numpy as np
import pytest

from ninecubes import arith, characters
from ninecubes.characters import DirichletCharacter, character_group, e_of
from ninecubes.errors import DomainError

MODULI = (1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 35, 63)


def test_e_of_basics():
    assert e_of(0.0) == pytest.approx(1.0)
    assert e_of(0.5) == pytest.approx(-1.0)
    assert e_of(0.25) == pytest.approx(1j)
    assert abs(e_of(1 / 3) ** 3 - 1) < 1e-12


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
            total = sum(chi(k) for k in range(q)) if q > 1 else chi(0)
            want = arith.euler_phi(q) if chi.is_principal else 0.0
            assert abs(total - want) <= 1e-9 * max(q, 1)


def test_column_orthogonality():
    for q in (5, 8, 9, 12, 63):
        group = character_group(q)
        for k in range(q):
            total = sum(chi(k) for chi in group)
            want = arith.euler_phi(q) if k % q == 1 % q else 0.0
            assert abs(total - want) <= 1e-9 * q


def test_multiplicative_values():
    rng = np.random.default_rng(211)
    for q in (7, 9, 16, 35, 63):
        group = character_group(q)
        for _ in range(40):
            chi = group[rng.integers(0, len(group))]
            a = int(rng.integers(0, q))
            b = int(rng.integers(0, q))
            assert abs(chi(a * b) - chi(a) * chi(b)) < 1e-12


def test_value_table_matches_calls():
    for q in (7, 12, 63):
        for chi in character_group(q):
            table = chi.value_table()
            assert table.shape == (q,)
            for k in range(q):
                assert abs(table[k] - chi(k)) < 1e-12


def test_bad_exponents_rejected():
    with pytest.raises(DomainError):
        DirichletCharacter(7, (6, 0))
    with pytest.raises(DomainError):
        DirichletCharacter(7, (99,))
