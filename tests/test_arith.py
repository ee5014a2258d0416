import math

import numpy as np
import pytest

from ninecubes import arith
from ninecubes.errors import DomainError, ResourceLimitError


def test_prime_counts():
    assert len(arith.sieve_primes(10**6)) == 78498
    assert arith.sieve_primes(10)[-1] == 7
    assert arith.sieve_primes(11)[-1] == 11
    assert arith.sieve_primes(1) == []


def test_sieve_cache_reuse_smaller_limit():
    big = arith.sieve_primes(5000)
    small = arith.sieve_primes(100)
    assert small == [p for p in big if p <= 100]


def test_is_prime_against_sieve():
    marks = set(arith.sieve_primes(10**4))
    for n in range(10**4 + 1):
        assert arith.is_prime(n) == (n in marks)


def test_factorize_round_trip():
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = int(rng.integers(1, 10**6))
        fact = arith.factorize(n)
        assert math.prod(p**e for p, e in fact) == n
        assert all(arith.is_prime(p) for p, _ in fact)
        assert [p for p, _ in fact] == sorted(p for p, _ in fact)


def test_phi_divisor_sum_identity():
    # sum of phi(d) over d | n equals n
    for n in list(range(1, 200)) + [720, 9973, 360360]:
        divisors = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
        divisors += [n // d for d in divisors if d * d != n]
        assert sum(arith.euler_phi(d) for d in divisors) == n


def test_icbrt_exact():
    for m in [0, 1, 2, 7, 8, 9, 26, 27, 28, 10**18 - 1, 10**18]:
        r = arith.icbrt(m)
        assert r**3 <= m < (r + 1) ** 3
    rng = np.random.default_rng(7)
    for _ in range(300):
        k = int(rng.integers(1, 10**12))
        assert arith.icbrt(k**3) == k
        assert arith.icbrt(k**3 - 1) == k - 1
    with pytest.raises(DomainError):
        arith.icbrt(-1)


def test_cube_roots_of_unity_brute():
    # x^3 = 1 (mod q) has gcd(3, m) solutions in each cyclic factor of order m
    for q in (9, 5, 7, 49, 343, 11, 169, 8, 63, 360, 2):
        brute = sum(1 for x in range(1, q) if math.gcd(x, q) == 1 and pow(x, 3, q) == 1)
        factors = arith.unit_group(q).components
        assert math.prod(math.gcd(3, c.order) for c in factors) == brute


def test_unit_group_structure():
    ug = arith.unit_group(63)
    assert ug.phi == 36
    assert sorted(c.order for c in ug.components) == [6, 6]
    for q in (2, 3, 4, 8, 16, 24, 63, 81, 100, 360):
        ug = arith.unit_group(q)
        assert math.prod(c.order for c in ug.components) == arith.euler_phi(q)
        for k in range(1, q):
            if math.gcd(k, q) != 1:
                continue
            vec = ug.exponent_vector(k)
            assert vec is not None
            assert ug.unit_from_exponents(vec) == k


def test_unit_group_trivial_and_non_units():
    assert arith.unit_group(1).phi == 1
    assert arith.unit_group(1).components == ()
    assert arith.unit_group(12).exponent_vector(6) is None


def test_crt_reconstruction():
    rng = np.random.default_rng(31)
    moduli = (7, 9, 11, 16)
    m = math.prod(moduli)
    for _ in range(50):
        x = int(rng.integers(0, m))
        assert arith.crt([x % mi for mi in moduli], moduli) == x


def test_sieve_cap():
    with pytest.raises(ResourceLimitError):
        arith.sieve_primes(arith.SIEVE_CAP + 1)
