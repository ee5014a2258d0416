import bisect
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from ninecubes import arcs as arcs_module
from ninecubes import cli
from ninecubes.arcs import (
    MajorArc,
    build_dissection,
    classify,
    dirichlet_approx,
    major_mask,
    normalize,
)
from ninecubes.errors import DomainError, ResourceLimitError


def test_dirichlet_classics():
    assert dirichlet_approx(math.pi, 10) == (22, 7)
    assert dirichlet_approx(0.3, 10) == (3, 10)
    assert dirichlet_approx(0.25, 4) == (1, 4)
    assert dirichlet_approx(0.25, 3) == (0, 1)  # |1 * 0.25 - 0| = 1/4 <= 1/3
    assert dirichlet_approx(0.0, 50) == (0, 1)
    assert dirichlet_approx(1.0, 50) == (1, 1)
    assert dirichlet_approx(0.5, 7) == (1, 2)


def test_dirichlet_invariants_random():
    rng = np.random.default_rng(711)
    for _ in range(400):
        alpha = float(rng.uniform(-3, 3))
        Q = int(rng.integers(1, 1000))
        a, q = dirichlet_approx(alpha, Q)
        assert 1 <= q <= Q
        assert a == 0 or math.gcd(abs(a), q) == 1
        assert abs(Fraction(q) * Fraction(alpha) - a) <= Fraction(1, Q)


def test_dirichlet_exact_rationals():
    rng = np.random.default_rng(712)
    for _ in range(100):
        q = int(rng.integers(1, 60))
        a = int(rng.integers(0, q + 1))
        got_a, got_q = dirichlet_approx(a / q, 10**6)
        g = math.gcd(a, q) if a else q
        assert (got_a, got_q) == (a // g, q // g)


def test_dissection_reference_shape():
    dis = build_dissection(10**6, 2, 0.01, 1.0)
    assert dis.P == 3
    assert dis.Q == 24127
    # centers a/q for q <= 3, wrapped into [1/Q, 1 + 1/Q)
    assert len(dis.arcs) == 4
    centers = [(arc.a, arc.q) for arc in dis.arcs]
    assert centers == [(1, 3), (1, 2), (2, 3), (1, 1)]
    lo = Fraction(1, dis.Q)
    assert all(arc.lo >= lo for arc in dis.arcs)
    assert all(arc.hi <= 1 + lo for arc in dis.arcs)
    for left, right in zip(dis.arcs, dis.arcs[1:]):
        assert left.hi < right.lo  # strictly disjoint
    assert 0 < dis.major_measure < 1
    want = sum(Fraction(2, arc.q * dis.Q) for arc in dis.arcs)
    assert dis.major_measure == want


def test_dissection_guards():
    with pytest.raises(DomainError):
        build_dissection(8, 2, 0.01, 1.0)  # N too small
    with pytest.raises(DomainError):
        build_dissection(10**6, 2, 0.2, 1.0)  # epsilon out of range
    with pytest.raises(DomainError):
        build_dissection(16, 2, 0.01, 3.0)  # Q collapses below 2P


def test_dissection_past_the_float_range():
    # N / D = 5e399 has no float: P and Q come from decimal and exact
    # rational arithmetic, and P meets its cap as for any other window
    N = 10**400
    with pytest.raises(ResourceLimitError, match="arc cap"):
        build_dissection(N, 2, 0.01, 1.0)
    dis = build_dissection(N, 2, 0.0999, 1.0)
    L = Fraction(math.log(N))
    assert dis.P == 1 and dis.Q * L <= N < (dis.Q + 1) * L  # Q = floor(N / (P L))
    assert [(arc.q, arc.a) for arc in dis.arcs] == [(1, 1)]
    assert classify(Fraction(1), dis) == (1, 1) and classify(Fraction(1, 2), dis) is None
    # below the float range the parameters are those of float N / D
    for N, D, eps, c in [(10**6, 2, 0.01, 1.0), (20000, 3, 0.05, 0.5), (10**12 + 39, 13, 0.001, 2.0)]:
        dis = build_dissection(N, D, eps, c)
        assert dis.P == max(1, int((N / D) ** (0.1 - eps)))
        assert dis.Q == int(N / (dis.P * math.log(N) ** c))


def test_classify_known_points():
    # classify reports (q, a) for the arc centered at a/q
    dis = build_dissection(10**6, 2, 0.01, 1.0)
    assert classify(0.5, dis) == (2, 1)
    assert classify(1.0 / 3.0, dis) == (3, 1)
    assert classify(2.0 / 3.0, dis) == (3, 2)
    assert classify(1.0, dis) == (1, 1)
    # wrap: points just above 0 belong to the arc at 1/1
    assert classify(1e-9, dis) == (1, 1)
    # a point far from every center with small denominator
    assert classify(0.41, dis) is None


def _probes(arc):
    """An arc's exact ends and centre, and its ends at 999/1000 and 1001/1000 of the half-width."""
    centre, half = Fraction(arc.a, arc.q), (arc.hi - arc.lo) / 2
    points = [arc.lo, arc.hi, centre]
    points += [centre + s * half * Fraction(k, 1000) for s in (-1, 1) for k in (999, 1001)]
    return points + [float(x) for x in points]


@pytest.mark.parametrize("N, P", [(10**6, 3), (10**15, 21), (10**20, 59)], ids=["P3", "P21", "P59"])
def test_classify_matches_membership(N, P):
    dis = build_dissection(N, 2, 0.01, 1.0)
    arcs = dis.arcs
    assert dis.P == P and dis.arc_count == len(arcs)
    assert dis.major_measure == sum(Fraction(2, arc.q * dis.Q) for arc in arcs)
    assert all(left.hi < right.lo for left, right in zip(arcs, arcs[1:]))
    lows = [arc.lo for arc in arcs]
    rng = np.random.default_rng(713)
    points = [float(x) for x in rng.uniform(0, 1, 500)]
    for arc in arcs:
        points += _probes(arc)
    for alpha in points:
        got = classify(alpha, dis)
        beta = normalize(alpha, dis)
        # sorted and disjoint: only the last arc starting at or below beta can hold it
        i = bisect.bisect_right(lows, beta)
        inside = [(arc.q, arc.a) for arc in arcs[i - 1:i] if arc.lo <= beta <= arc.hi]
        if got is None:
            assert inside == []
        else:
            assert inside == [got]
    # the float pass decides every point as classify does
    floats = [float(alpha) for alpha in points]
    want = [classify(alpha, dis) is not None for alpha in floats]
    assert major_mask(np.array(floats), dis).tolist() == want


def test_major_mask_near_the_cap(monkeypatch):
    # arcs 1e-32 wide: every probe lies in the float test's guard band of
    # some q, so each one is decided by the exact classify
    dis = build_dissection(10**33, 2)
    assert dis.P == 876 and dis.Q > 10**28
    Q = dis.Q
    points = []
    for q, a in [(1, 1), (2, 1), (876, 5), (875, 437), (3, 2)]:
        arc = MajorArc(q, a, Fraction(a * Q - 1, q * Q), Fraction(a * Q + 1, q * Q))
        points += [float(x) for x in _probes(arc)]
    want = [classify(alpha, dis) is not None for alpha in points]
    calls = []

    def spy(alpha, dissection):
        calls.append(alpha)
        return classify(alpha, dissection)

    monkeypatch.setattr(arcs_module, "classify", spy)
    assert major_mask(np.array(points), dis).tolist() == want
    assert len(calls) == len(points)


def test_major_mask_at_the_first_grid_point():
    # the scan starts at float 1/Q; below the exact 1/Q it wraps to 1 + 1/Q,
    # on the arc at 1/1, and at or above it is minor
    dis = build_dissection(10**6, 2, 0.01, 1.0)
    seen = set()
    for Q in range(dis.Q - 50, dis.Q + 50):
        shifted = dataclasses.replace(dis, Q=Q)
        start = 1.0 / Q
        below = Fraction(start) < Fraction(1, Q)
        seen.add(below)
        assert classify(start, shifted) == ((1, 1) if below else None)
        assert major_mask(np.array([start]), shifted)[0] == below
    assert seen == {True, False}


def test_no_arc_list_near_the_cap(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a MajorArc was built")

    monkeypatch.setattr(arcs_module, "MajorArc", refuse)
    N = 10**33
    dis = build_dissection(N, 2)
    assert (dis.P, dis.arc_count) == (876, 233262)
    half = Fraction(1, 876 * dis.Q)
    assert classify(Fraction(5, 876), dis) == (876, 5)
    assert classify(Fraction(5, 876) + half, dis) == (876, 5)
    assert classify(Fraction(5, 876) + 2 * half, dis) is None
    # nor does the report, whose bytes the manifest's arcs-876.json line holds
    assert cli.run(["arcs", "--N", str(N), "--D", "2"]) == 0


def test_normalize_window():
    dis = build_dissection(10**6, 2, 0.01, 1.0)
    lo = Fraction(1, dis.Q)
    rng = np.random.default_rng(714)
    for _ in range(200):
        alpha = float(rng.uniform(-2, 2))
        beta = normalize(alpha, dis)
        assert lo <= beta < 1 + lo
        assert (beta - Fraction(alpha)) % 1 == 0
