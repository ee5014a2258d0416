import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from ninecubes import arith
from ninecubes.errors import DomainError, ResourceLimitError


def test_prime_counts():
    assert len(arith.sieve_primes(10**6)) == 78498
    assert arith.sieve_primes(10)[-1] == 7
    assert arith.sieve_primes(11)[-1] == 11
    assert arith.sieve_primes(1).tolist() == []


def test_sieve_cache_reuse_smaller_limit():
    big = arith.sieve_primes(5000).tolist()
    small = arith.sieve_primes(100).tolist()
    assert small == [p for p in big if p <= 100]


def test_sieve_cache_never_shrinks_under_threads(monkeypatch):
    # a large sieve finishes in another thread while a small one is sieving;
    # the small one, finishing last, must not replace the cached large one
    monkeypatch.setattr(arith, "_sieve", (0, np.empty(0, dtype=np.int64)))
    flatnonzero = np.flatnonzero
    sieved = []

    def interleaved(mask):
        sieved.append(len(mask) - 1)
        if len(mask) == 102:
            other = threading.Thread(target=arith.sieve_primes, args=(10**4,))
            other.start()
            other.join(timeout=60)
            assert not other.is_alive()
        return flatnonzero(mask)

    monkeypatch.setattr(arith.np, "flatnonzero", interleaved)
    assert len(arith.sieve_primes(101)) == 26
    assert arith._sieve[0] == 10**4
    assert len(arith.sieve_primes(1000)) == 168
    assert sieved == [101, 10**4]  # 1000 is served from the cached sieve


def test_sieve_cache_stress_under_threads(monkeypatch):
    # more threads than cores, switching often: every call returns exactly the
    # primes up to its limit, and the cache ends at the largest limit asked for
    monkeypatch.setattr(arith, "_sieve", (0, np.empty(0, dtype=np.int64)))
    marks = np.ones(20001, dtype=bool)
    marks[:2] = False
    for p in range(2, 142):
        marks[p * p :: p] = False
    # each thread asks for ascending limits, so sieves keep racing to the end
    limits = np.sort(np.random.default_rng(5).integers(2, 20001, size=(8, 40)), axis=1)
    errors = []

    def worker(row):
        for limit in row:
            if arith.sieve_primes(int(limit)).tolist() != np.flatnonzero(marks[: limit + 1]).tolist():
                errors.append(int(limit))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(row,)) for row in limits]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert arith._sieve[0] == limits.max()


def test_sieve_keeps_eight_bytes_per_prime(monkeypatch):
    # one int64 array: a list would hold a pointer and a Python int per prime
    monkeypatch.setattr(arith, "_sieve", (0, np.empty(0, dtype=np.int64)))
    tracemalloc.start()
    try:
        count = len(arith.sieve_primes(10**7))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert count == 664579
    assert held <= 8 * count + 64 * 1024


def test_sieve_and_window_primes_are_read_only():
    before = arith.sieve_primes(1000).tolist()
    for primes in (arith.sieve_primes(1000), arith.window_primes(1, 8, 10**9)):
        with pytest.raises(ValueError):
            primes[0] = 4
        with pytest.raises(ValueError):
            primes[:] = 0
    assert arith.sieve_primes(1000).tolist() == before
    assert arith.window_primes(1, 8, 10**9).tolist() == before[1:]


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
    # past the float range, which a float first guess cannot reach
    k = 10**100 + 7
    for m, want in [(k**3 - 1, k - 1), (k**3, k), (k**3 + 1, k)]:
        assert arith.icbrt(m) == want
    with pytest.raises(DomainError):
        arith.icbrt(-1)


def test_cube_roots_of_unity_brute():
    # x^3 = 1 (mod q) has gcd(3, m) solutions in each cyclic factor of order m
    for q in (9, 5, 7, 49, 343, 11, 169, 8, 16, 27, 256, 2):
        brute = sum(1 for x in range(1, q) if math.gcd(x, q) == 1 and pow(x, 3, q) == 1)
        assert math.prod(math.gcd(3, m) for m in arith.unit_group(q).orders) == brute


def test_unit_group_structure():
    ug = arith.unit_group(256)
    assert ug.orders == (2, 64)
    for q in (2, 3, 4, 8, 16, 27, 81, 125, 256, 343):
        ug = arith.unit_group(q)
        # the power table is the group's only array: one axis per generator,
        # of length its order, holding each of the phi(q) units exactly once
        assert [f.name for f in dataclasses.fields(ug)] == ["modulus", "orders", "units"]
        assert ug.units.shape == ug.orders
        assert sorted(ug.units.ravel().tolist()) == [k for k in range(q) if math.gcd(k, q) == 1]
        # units[t] = prod_i g_i^t_i, g_i the unit at the i-th unit vector
        gens = [int(ug.units[tuple(int(i == j) for j in range(len(ug.orders)))])
                for i in range(len(ug.orders))]
        for t in np.ndindex(ug.units.shape):
            assert ug.units[t] == math.prod(pow(g, e, q) for g, e in zip(gens, t)) % q


def test_unit_group_trivial_and_non_units():
    for q in (1, 2):
        ug = arith.unit_group(q)
        assert ug.orders == () and ug.units.shape == () and int(ug.units) == q - 1
    assert 6 not in arith.unit_group(9).units
    for q in (12, 35, 63, 360):
        with pytest.raises(DomainError):
            arith.unit_group(q)


def test_sieve_cap():
    with pytest.raises(ResourceLimitError):
        arith.sieve_primes(arith.SIEVE_CAP + 1)


def test_window_primes_match_brute_force_at_the_cube_edges():
    # ends at |a| p^3 - 1, |a| p^3 and |a| p^3 + 1, with M = 0 and N below 8
    primes = arith.sieve_primes(40).tolist()
    for mag in (1, 2, 3, 5, 7, 11, 13, 97):
        edges = sorted({0, 1, 7} | {mag * p**3 + d for p in primes[:8] for d in (-1, 0, 1)})
        for M in edges:
            for N in edges:
                want = [p for p in primes if M < mag * p**3 <= N]
                assert arith.window_primes(mag, M, N).tolist() == want


def test_window_primes_are_exact_past_the_float_range():
    big = 10**300
    assert arith.window_primes(big, 8 * big - 1, 27 * big).tolist() == [2, 3]
    assert arith.window_primes(big, 8 * big, 27 * big - 1).tolist() == []
    p = 999983  # the greatest prime below 10^6
    assert arith.window_primes(1, p**3 - 1, p**3).tolist() == [p]
    # M past N: the lower end is clamped, so no int past int64 reaches numpy
    assert arith.window_primes(1, 10**200, 10**6).tolist() == []
    with pytest.raises(DomainError):
        arith.window_primes(0, 1, 8)


def test_check_window_returns_integers():
    assert arith.check_window(10, 100.0) == (10, 100)
    assert all(type(end) is int for end in arith.check_window(np.int64(10), 100.0))
    for M, N in ((10, 100.5), (10.5, 100), (0, 8), (8, 8)):
        with pytest.raises(DomainError):
            arith.check_window(M, N)
