"""Per-op correctness checks: independent oracles, then stored references.

`check(spec, summary)` returns a list of problems, empty when the output
is right.  Integer outputs must match exactly.  Float outputs must match
within the tolerance of the route that produced them:

- r(n) by either route: 1e-6 (1 + |r|), the direct/Fourier agreement
  that acceptance criterion 1 declares, plus the FFT rounding bound
  64 eps log2(T) * (product of weight sums) for full products;
- A(q): relative 1e-9; an exact zero may come out as rounding noise of
  eps q^-4, the size of one term of B(q) / phi(q)^9.  A(q) falls like
  q^-4 and below, so a fixed absolute floor would pass any value at
  large q;
- the main term 3^-9 S J(n): the series sum S to 1e-12 (1 + sum |A(q)|)
  and J(n) to the same FFT rounding bound as full products;
- everything else: relative 1e-9 with an absolute floor of 1e-12.

A negative r(n) within tolerance of the true count is not a failure;
the traced run counts such values in `expsum.r_negative` instead.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

import oracles
import workloads

REL = 1e-9
ABS = 1e-12
R_TOL = 1e-6
NORMALIZER = 3.0**-9  # each of the nine cube variables gives a factor 1/3


def close(got: float | None, want: float | None, rel: float = REL, abs_: float = ABS) -> bool:
    if got is None or want is None:
        return got is want
    return abs(got - want) <= abs_ + rel * max(abs(got), abs(want))


def _r_close(got: float, want: float, slack: float = 0.0) -> bool:
    return abs(got - want) <= R_TOL * (1.0 + abs(want)) + slack


def _a_close(q: int, got: float, want) -> bool:
    return close(got, float(want), abs_=0.0 if want else oracles.EPS * q**-4.0)


def _check_series(spec, s) -> list[str]:
    coeffs, n, x = tuple(spec["coeffs"]), spec["n"], spec["x"]
    out = []
    support = [q for q in range(1, x + 1) if oracles.series_support(q)]
    if s["support"] != workloads.support_digest(support):
        out.append("series support differs from q = 3^e m, e <= 3, m squarefree")
    for q, term in {**s["sample"], **s["far"]}.items():
        want = oracles.series_term(int(q), coeffs, n)
        if not _a_close(int(q), term, want):
            out.append(f"A({q}) = {term!r}, Moebius-inverted exact count gives {float(want)!r}")
    if not close(s["value"], s["terms_fsum"]):
        out.append(f"series value {s['value']!r} != sum of its terms {s['terms_fsum']!r}")
    if s["euler_pmax"] != max(x, 3):
        out.append(f"Euler cutoff {s['euler_pmax']} != max(x, 3)")
    if not close(s["euler_value"], s["euler_from_terms"]):
        out.append(f"Euler product {s['euler_value']!r} != product over the reported "
                   f"prime terms {s['euler_from_terms']!r}")
    return out


def _check_local(spec, s) -> list[str]:
    coeffs, n, q = tuple(spec["coeffs"]), spec["n"], spec["q"]
    out = []
    want_n = oracles.unit_count(q, tuple(a % q for a in coeffs), n % q)
    if int(s["N"]) != want_n:
        out.append(f"N({q}) = {s['N']}, exact convolution gives {want_n}")
    want_a = oracles.series_term(q, coeffs, n)
    if not _a_close(q, s["A"], want_a):
        out.append(f"A({q}) = {s['A']!r}, Moebius-inverted exact count gives {float(want_a)!r}")
    is_prime = oracles.factor(q) == [(q, 1)]
    if is_prime != (s["s"] is not None):
        out.append(f"s(p) reported for q = {q} but prime = {is_prime}")
    elif is_prime:
        want_s = q * want_n / float(q - 1) ** 9
        if not close(s["s"], want_s):
            out.append(f"s({q}) = {s['s']!r}, p N(p) / phi(p)^9 = {want_s!r}")
    return out


def _check_chars(spec, s) -> list[str]:
    q = spec["q"]
    out = []
    if s["count"] != oracles.phi(q):
        out.append(f"{s['count']} characters mod {q}, phi = {oracles.phi(q)}")
    # sum over chi of C_chi(a) = phi(q) e(a/q): only k = 1 survives orthogonality
    if s["orth_err"] > 1e-9 * oracles.phi(q) * q:
        out.append(f"orthogonality residual {s['orth_err']:.3g} mod {q}")
    return out


def _check_point(spec, s) -> list[str]:
    coeffs, n, M, N = spec["coeffs"], spec["n"], spec["M"], spec["N"]
    (r, count), = oracles.weighted_count(coeffs, M, N, [n])
    out = []
    for route in ("r_direct", "r_fourier"):
        if not _r_close(s[route], r):
            out.append(f"{route} = {s[route]!r}, exact join gives {r!r} ({count} tuples)")
    series, series_abs = oracles.series_sum(coeffs, n, workloads.POINT_SERIES_CUTOFF)
    series_tol = 1e-12 * (1.0 + float(series_abs))
    j, j_tol = oracles.singular_integral(coeffs, M, N, n)
    want = NORMALIZER * float(series) * j
    tol = NORMALIZER * (abs(float(series)) * j_tol + (j + j_tol) * series_tol)
    mt = s["main_term"]  # the truncated series can be negative, so can the main term
    if not close(mt, want, abs_=tol):
        out.append(f"main term {mt!r}, 3^-9 * exact series sum * FFT J(n) gives {want!r}")
    elif mt and not close(s["ratio"], s["r_direct"] / mt):
        out.append("ratio != r_direct / main_term")
    return out


def _parts(spec) -> list[tuple[int, int, float, float]]:
    """(lo, length, mass, mean index) of each input factor."""
    M, N = spec["M"], spec["N"]
    out = []
    for a in spec["coeffs"]:
        if spec["kind"] == "full_sparse":
            idx = np.array([a * p**3 for p in oracles.window_primes(a, M, N)], dtype=np.float64)
            w = np.log(np.abs(idx / a)) / 3.0
        else:
            m = np.arange(M // abs(a) + 1, N // abs(a) + 1, dtype=np.float64)
            idx, w = a * m, m ** (-2.0 / 3.0)
        mass = math.fsum(w.tolist())
        out.append((int(idx.min()), int(idx.max() - idx.min()) + 1, mass, float(np.dot(idx, w)) / mass))
    return out


def _check_full(spec, s) -> list[str]:
    parts = _parts(spec)
    out = []
    lo = sum(p[0] for p in parts)
    length = sum(p[1] - 1 for p in parts) + 1
    if (s["lo"], s["len"]) != (lo, length):
        out.append(f"product range ({s['lo']}, {s['len']}) != ({lo}, {length})")
    mass = math.prod(p[2] for p in parts)
    if not close(s["mass"], mass):
        out.append(f"product mass {s['mass']!r} != product of masses {mass!r}")
    mean = sum(p[3] for p in parts)
    if not close(s["mean"], mean, abs_=1e-6):
        out.append(f"product mean index {s['mean']!r} != sum of means {mean!r}")
    if spec["kind"] == "full_sparse":
        slack = 64 * oracles.EPS * math.log2(length) * mass
        want = oracles.weighted_count(spec["coeffs"], spec["M"], spec["N"], spec["probes"])
        for n, got, (r, _) in zip(spec["probes"], s["probes"], want):
            if not _r_close(got, r, slack):
                out.append(f"coefficient at {n} = {got!r}, exact join gives {r!r}")
    return out


def _check_scan(spec, s) -> list[str]:
    N, D, step = spec["N"], spec["D"], spec["grid_step"]
    P, Q = oracles.arc_params(N, D, 0.01, 1.0)
    out = []
    if (s["P"], s["Q"]) != (P, Q):
        out.append(f"(P, Q) = ({s['P']}, {s['Q']}), formula gives ({P}, {Q})")
    n_arcs = sum(oracles.phi(q) for q in range(1, P + 1))
    measure = sum(oracles.phi(q) * 2 * Fraction(1, q * Q) for q in range(1, P + 1))
    if (s["arcs"], s["measure"]) != (n_arcs, str(measure)):
        out.append(f"{s['arcs']} arcs of measure {s['measure']}, expected {n_arcs} of {measure}")
    start = 1.0 / Q
    npts = int(math.ceil(1.0 / step))
    alphas = [start + i * step for i in range(npts)]
    minor = np.array([a for a in alphas if a < 1.0 + start and not oracles.is_major(a, P, Q)])
    a8 = spec["coeffs"][8]
    idx = np.array([a8 * p**3 for p in oracles.window_primes(a8, spec["M"], N)], dtype=np.float64)
    w = np.log(np.abs(idx / a8)) / 3.0
    sup = None
    if len(minor):
        phase = (idx[None, :] * minor[:, None]) % 1.0
        sup = float(np.abs(np.exp(2j * np.pi * phase) @ w).max())
    if (s["points_total"], s["points_minor"]) != (npts, len(minor)):
        out.append(f"{s['points_minor']} of {s['points_total']} points minor, "
                   f"exact classification gives {len(minor)} of {npts}")
    if not close(s["sup_abs"], sup):
        out.append(f"minor-arc sup {s['sup_abs']!r}, direct evaluation gives {sup!r}")
    return out


def _slots(spec) -> list[list[int]]:
    primes = oracles.primes_upto(spec["bound"])
    if spec["kind"] != "window":
        return [primes] * 9
    return [[p for p in oracles.window_primes(a, spec["M"], spec["N"]) if p <= spec["bound"]]
            for a in spec["coeffs"]]


def _check_find(spec, s) -> list[str]:
    coeffs, n = spec["coeffs"], spec["n"]
    if spec["kind"] == "exhaust":
        # n lies outside every attainable sum; the final stage visits the
        # 4-slot index plus the 4-slot x 1-slot scan over pi(bound) primes
        primes = oracles.primes_upto(spec["bound"])
        k = len(primes)
        lo, hi = oracles.attainable(coeffs, [primes] * 9)
        if lo <= n <= hi:
            return [f"target {n} is not outside the attainable range [{lo}, {hi}]"]
        if s["found"] or s["states_visited"] != k**4 + k**5:
            return [f"expected exhaustion after {k**4 + k**5} states, got {s}"]
        return []
    if not s["found"]:
        return ["no solution found for a planted target"]
    primes, out = s["primes"], []
    if sum(a * p**3 for a, p in zip(coeffs, primes)) != n or max(primes) != s["max_p"]:
        return [f"tuple {primes} does not solve the equation with max {s['max_p']}"]
    slots = _slots(spec)
    if any(p not in ps for p, ps in zip(primes, slots)):
        out.append(f"tuple {primes} leaves the allowed primes")
    if oracles.solvable_below(coeffs, n, slots, s["max_p"]):
        out.append(f"a solution with all primes < {s['max_p']} exists")
    elif s["found_by"].endswith("+lex"):
        best = oracles.best_solution(coeffs, n, slots, s["max_p"])
        if tuple(primes) != best:
            out.append(f"tuple {primes} is not the least, {best} is")
    return out


def _check_exists(spec, s) -> list[str]:
    primes = oracles.primes_upto(spec["bound"])
    want = bool(oracles.reachable_upto(spec["coeffs"], primes, spec["n"])[spec["n"]])
    return [] if s["exists"] == want else [f"exists = {s['exists']}, bitmap reachability gives {want}"]


def _check_thresholds(spec, s) -> list[str]:
    primes = oracles.primes_upto(spec["bound"])
    out = []
    for coeffs, (n, max_p) in zip(spec["grid"], s["rows"]):
        reach = oracles.reachable_upto(coeffs, primes, spec["n_hi"])
        hits = np.flatnonzero(reach[spec["n_lo"] :])
        want = int(hits[0]) + spec["n_lo"] if len(hits) else None
        if n != want:
            out.append(f"least n for {coeffs} is {n}, bitmap reachability gives {want}")
        elif n is not None:
            slots = [primes] * 9
            if oracles.solvable_below(coeffs, n, slots, max_p) or not oracles.solvable_below(
                coeffs, n, slots, max_p + 1
            ):
                out.append(f"least max prime for {coeffs}, n = {n} is not {max_p}")
    if len(s["rows"]) != len(spec["grid"]):
        out.append("one row per system expected")
    return out


_ORACLE = {
    "series": _check_series,
    "local": _check_local,
    "chars": _check_chars,
    "point": _check_point,
    "full_sparse": _check_full,
    "full_dense": _check_full,
    "scan": _check_scan,
    "planted": _check_find,
    "window": _check_find,
    "exhaust": _check_find,
    "exists": _check_exists,
    "thresholds": _check_thresholds,
}

_R_FIELDS = {"r_direct", "r_fourier", "probes"}


def _same(key: str, got, want) -> bool:
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            _same(k, got[k], want[k]) for k in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            _same(key, g, w) for g, w in zip(got, want)
        )
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        return _r_close(got, want) if key in _R_FIELDS else close(got, want)
    return got == want


def against_reference(summary: dict, reference: dict) -> list[str]:
    """Problems in a summary compared with the stored output of the same op."""
    return [
        f"{key} = {summary.get(key)!r}, reference {want!r}"
        for key, want in reference.items()
        if not _same(key, summary.get(key), want)
    ]


def check(spec: dict, summary: dict, reference: dict | None = None) -> list[str]:
    """All problems found in one op's output; empty means correct."""
    problems = _ORACLE[spec["kind"]](spec, summary)
    if reference is not None:
        problems += against_reference(summary, reference)
    return problems
