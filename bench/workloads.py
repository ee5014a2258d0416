"""Workload inputs, the timed calls into ninecubes, and output summaries.

A run is a sequence of rounds.  Every round of a workload has the same
op kinds at the same sizes, so each run holds the same mix and its
medians and tail stay comparable across seeds; the seed picks the
coefficient systems, targets and prime powers, and jitters sizes within
narrow bands.  An op is "fresh" when its input is new in the run and a
"repeat" when it replays an earlier op of the same round exactly.

Inputs are plain JSON-able dicts ("specs") generated without calling the
library, so generating them warms no library cache.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import numpy as np

import oracles

WORKLOADS = ("local-series", "window-count", "search")
# Nominal seconds per round on a 2-core Xeon at the commit that defined the
# benchmark.  --seconds is turned into a fixed number of rounds with these,
# so runs of two commits do the same work and their quantiles fall on the
# same op kinds.
ROUND_SECONDS = {"local-series": 3.1, "window-count": 5.5, "search": 6.0}
FIRST_ROUND_EXTRA = {"local-series": 0.0, "window-count": 9.0, "search": 0.0}

_COEFF_POOL = (2, 3, 5, 7, 11, 13)
_PRIME_POWERS = sorted(
    {p**e for p in oracles.primes_upto(343) for e in range(1, 9) if p**e <= 343}
)


def _rng(workload: str, seed: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed, round_index])


def _system(rng, n_lo: int, n_hi: int, special: int, signed: bool) -> tuple[tuple[int, ...], int]:
    """Coefficients and n meeting the solubility side conditions.

    Magnitudes are 1 except `special` slots holding distinct small primes,
    so the coefficients are pairwise coprime and gcd(n, a) = 1; n is moved
    by one when needed to match the parity of the coefficient sum.
    """
    mags = [1] * 9
    for slot, pick in zip(
        rng.choice(9, size=special, replace=False),
        rng.choice(len(_COEFF_POOL), size=special, replace=False),
    ):
        mags[slot] = _COEFF_POOL[pick]
    signs = [-1 if signed and rng.random() < 0.5 else 1 for _ in range(9)]
    coeffs = tuple(s * m for s, m in zip(signs, mags))
    n = int(rng.integers(n_lo, n_hi + 1))
    if (sum(coeffs) - n) % 2:
        n += 1
    return coeffs, n


def _small_coeffs(rng, signed: int, big: int | None = None) -> tuple[int, ...]:
    """Unit magnitudes but one random slot of `big` (2 or 3 when not given);
    `signed` random slots are negative."""
    coeffs = [1] * 9
    coeffs[int(rng.integers(9))] = big or int(rng.choice([2, 3]))
    for j in rng.choice(9, size=signed, replace=False):
        coeffs[j] = -coeffs[j]
    return tuple(coeffs)


def _log_uniform(rng, lo: float, hi: float, stratum: int, strata: int) -> int:
    """A draw from the middle of stratum `stratum` of [lo, hi] on a log scale."""
    u = (stratum + rng.uniform(0.35, 0.65)) / strata
    return int(round(lo * (hi / lo) ** u))


def _planted(rng, coeffs, slots: list[list[int]]) -> int:
    return sum(a * int(rng.choice(ps)) ** 3 for a, ps in zip(coeffs, slots))


def _repeat(spec: dict) -> dict:
    return dict(spec, fresh=False)


# --- local-series -----------------------------------------------------------
#
# Per round: fresh series at x = 3000, 1000, 1000, 300, 300, local_data at
# a prime q in (500, 1000] and a composite q in [1700, 2000], the character
# sums at a prime power q in [250, 343]; repeats of one x = 1000 series
# (three times), the composite local_data and the character sums.  With 8
# rounds the overall and fresh medians fall among the x = 300 series, the
# repeat median among the x = 1000 repeats and the tail among the x = 1000
# fresh series: kinds whose cost depends on x, not on the system.

SERIES_X = (3000, 1000, 1000, 300, 300)
CHAR_BAND = (250, 343)


def _local_series_round(rng, index: int, used_q: set[int]) -> list[dict]:
    ops = []
    for x in SERIES_X:
        coeffs, n = _system(rng, 1, 10**4, int(rng.integers(0, 4)), True)
        ops.append({"kind": "series", "coeffs": coeffs, "n": n, "x": x})
    for lo, hi, prime in ((501, 1000, True), (1700, 2000, False)):
        pool = [q for q in range(lo, hi + 1) if (oracles.factor(q) == [(q, 1)]) == prime]
        coeffs, n = _system(rng, 1, 10**4, int(rng.integers(0, 4)), True)
        ops.append({"kind": "local", "coeffs": coeffs, "n": n, "q": int(rng.choice(pool))})
    pool = [q for q in _PRIME_POWERS if CHAR_BAND[0] <= q <= CHAR_BAND[1] and q not in used_q]
    q = int(rng.choice(pool or [q for q in _PRIME_POWERS if q >= 32 and q not in used_q]))
    used_q.add(q)
    ops.append({"kind": "chars", "q": q})
    ops = [dict(s, fresh=True) for s in ops]
    return ops + [_repeat(ops[i]) for i in (1, 1, 1, 6, 7)]


# --- window-count -----------------------------------------------------------

POINT_STRATA = 4
POINT_SERIES_CUTOFF = 100
POINT_RANGE = (10**4, 3 * 10**5)
SCAN_STEP = 1e-3


def _window_target(rng, coeffs, M: int, N: int, planted: bool) -> int:
    slots = [oracles.window_primes(a, M, N) for a in coeffs]
    if planted:
        return _planted(rng, coeffs, slots)
    lo, hi = oracles.attainable(coeffs, slots)
    n = int(rng.integers(lo, hi + 1))
    if (sum(coeffs) - n) % 2:  # parity-consistent, so r(n) = 0 is not forced
        n += 1 if n < hi else -1
    return n


def _full(rng, kind: str, N: int) -> dict:
    # fixed magnitudes in fixed slots, random signs: every table of one
    # size then takes the same direct/FFT path at every stage
    negative = set(rng.choice(9, size=2, replace=False).tolist())
    coeffs = tuple(-m if j in negative else m for j, m in enumerate((1,) * 7 + (2, 3)))
    spec = {"kind": kind, "coeffs": coeffs, "M": N // 10, "N": N}
    if kind == "full_sparse":
        spec["probes"] = [_window_target(rng, spec["coeffs"], N // 10, N, True) for _ in range(3)]
    return spec


def _window_count_round(rng, index: int, used_q: set[int]) -> list[dict]:
    """Per round: four point reads (one per quarter of [1e4, 3e5] on a log
    scale), sparse full tables at 1e5 and 3e5 (two each), a dense one at
    1e5, minor-arc scans at 1e5 and 1e6; repeats of one table of each kind.
    The first round adds the largest tables, sparse at 1e6 and dense at
    3e5, which cost as much as a round.  With 3 rounds the medians fall
    among the 3e5 sparse tables and the tail among the 1e5 dense tables,
    whose cost is set by N alone."""
    ops = []
    for i in range(POINT_STRATA):
        N = _log_uniform(rng, *POINT_RANGE, i, POINT_STRATA)
        coeffs = _small_coeffs(rng, 2)
        n = _window_target(rng, coeffs, N // 10, N, planted=i != 1)
        ops.append({"kind": "point", "coeffs": coeffs, "n": n, "M": N // 10, "N": N})
    for kind, N in (("full_sparse", 10**5), ("full_sparse", 10**5), ("full_sparse", 3 * 10**5),
                    ("full_sparse", 3 * 10**5), ("full_dense", 10**5)):
        ops.append(_full(rng, kind, N))
    for N in (10**5, 10**6):
        coeffs = _small_coeffs(rng, 2)
        ops.append(
            {"kind": "scan", "coeffs": coeffs, "n": 1, "M": N // 10, "N": N,
             "D": max(2, max(abs(a) for a in coeffs)), "grid_step": SCAN_STEP}
        )
    if index == 0:
        ops += [_full(rng, "full_sparse", 10**6), _full(rng, "full_dense", 3 * 10**5)]
    ops = [dict(s, fresh=True) for s in ops]
    return ops + [_repeat(ops[i]) for i in (4, 6, 8)]


# --- search -----------------------------------------------------------------

PRIME_BOUND = 128
EXISTS_BOUND = 30
THRESHOLD_BOUND = 50


def _search_round(rng, index: int, used_q: set[int]) -> list[dict]:
    """Per round: planted targets of nine primes in {37, 41} and in
    {23, 29, 31}, a planted windowed target, two targets below the least
    attainable sum, one solution_exists and one threshold_scan; repeats of
    the small planted target, an exhaustion and the existence check.  All-positive systems
    with every prime >= p have least max prime >= p, so each planted kind
    ends at a known stage of the prime-bound ladder.  With 4 rounds the
    medians and the tail fall among the small planted searches and the
    exhaustions, which cost about the same."""
    ops = []
    for primes, coeffs in (([37, 41], (1,) * 8 + (2,)), ([23, 29, 31], (1,) * 8 + (3,))):
        ops.append({"kind": "planted", "coeffs": coeffs, "n": _planted(rng, coeffs, [primes] * 9),
                    "bound": PRIME_BOUND})
    N = _log_uniform(rng, 10**4, 10**6, 0, 1)
    coeffs = _small_coeffs(rng, 2)
    ops.append({"kind": "window", "coeffs": coeffs, "n": _window_target(rng, coeffs, N // 10, N, True),
                "M": N // 10, "N": N, "bound": PRIME_BOUND})
    for _ in range(2):
        coeffs = _small_coeffs(rng, 0)
        ops.append({"kind": "exhaust", "coeffs": coeffs, "n": int(rng.integers(1, 8 * sum(coeffs))),
                    "bound": PRIME_BOUND})
    coeffs = _small_coeffs(rng, 0, big=3)
    n = int(rng.integers(10**3, 10**5))
    ops.append({"kind": "exists", "coeffs": coeffs, "n": n + (sum(coeffs) - n) % 2,
                "bound": EXISTS_BOUND})
    grid = [_small_coeffs(rng, 0, big=int(rng.choice([2, 3]))) for _ in range(3)]
    n_lo = _log_uniform(rng, 100, 9 * 10**4, 0, 1)
    ops.append({"kind": "thresholds", "grid": grid, "n_lo": n_lo, "n_hi": n_lo + 2000,
                "bound": THRESHOLD_BOUND})
    ops = [dict(s, fresh=True) for s in ops]
    return ops + [_repeat(ops[i]) for i in (1, 3, 5)]


_ROUNDS = {
    "local-series": _local_series_round,
    "window-count": _window_count_round,
    "search": _search_round,
}


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds that fill `seconds` at the nominal round length."""
    return max(1, round((seconds - FIRST_ROUND_EXTRA[workload]) / ROUND_SECONDS[workload]))


def generate(workload: str, seed: int, rounds: int) -> list[list[dict]]:
    """The op specs of each round; equal seeds give equal specs."""
    used_q: set[int] = set()  # prime powers already given to character sums
    out = []
    for r in range(rounds):
        specs = _ROUNDS[workload](_rng(workload, seed, r), r, used_q)
        out.append(json.loads(json.dumps(specs, default=int)))  # plain ints and lists
    return out


# --- calling the library ----------------------------------------------------


def _dense_part(nc, a: int, M: int, N: int):
    """m^(-2/3) at indices a m over the window M < |a| m <= N."""
    mag = abs(a)
    m = np.arange(M // mag + 1, N // mag + 1, dtype=np.float64)
    vals = np.zeros((len(m) - 1) * mag + 1)
    vals[::mag] = (m if a > 0 else m[::-1]) ** (-2.0 / 3.0)
    return nc.convolve.IndexedWeights(int(a * (m[0] if a > 0 else m[-1])), vals)


def _sparse_part(nc, a: int, M: int, N: int):
    """log p at indices a p^3 over the window M < |a| p^3 <= N."""
    ps = np.asarray(oracles.window_primes(a, M, N), dtype=np.int64)
    idx = a * ps**3
    lo = int(idx.min())
    vals = np.zeros(int(idx.max()) - lo + 1)
    vals[idx - lo] = np.log(ps.astype(np.float64))
    return nc.convolve.IndexedWeights(lo, vals)


def prepare(nc, spec: dict):
    """Untimed: build the arguments of the timed call."""
    kind = spec["kind"]
    if kind in ("full_sparse", "full_dense"):
        part = _sparse_part if kind == "full_sparse" else _dense_part
        return ([part(nc, a, spec["M"], spec["N"]) for a in spec["coeffs"]],)
    if kind == "thresholds":
        return (spec["grid"], range(spec["n_lo"], spec["n_hi"] + 1), spec["bound"])
    if kind == "chars":
        return (spec["q"],)
    system = nc.localdata.CoefficientSystem.make(spec["coeffs"], spec["n"])
    if kind == "series":
        return (system, spec["x"])
    if kind == "local":
        return (spec["q"], system)
    if kind == "point":
        return (system, spec["M"], spec["N"])
    if kind == "scan":
        return (system, spec["M"], spec["N"], spec["D"], spec["grid_step"])
    if kind == "window":
        return (system, spec["bound"], (spec["M"], spec["N"]))
    return (system, spec["bound"])


def call(nc, kind: str, args):
    """Timed: one op.  Library functions are looked up at call time, so a
    tracing wrapper installed on the module attribute sees the call."""
    if kind == "series":
        return nc.singular.singular_series_partial(*args)
    if kind == "local":
        return nc.localdata.local_data(*args)
    if kind == "chars":
        chars = nc.characters.character_group(*args)
        return [nc.localdata.cubic_char_sum_table(chi) for chi in chars]
    if kind == "point":
        return nc.expsum.rn_report(*args, series_cutoff=POINT_SERIES_CUTOFF)
    if kind in ("full_sparse", "full_dense"):
        return nc.convolve.convolve_full(*args)
    if kind == "scan":
        system, M, N, D, step = args
        dissection = nc.arcs.build_dissection(N, D)
        return dissection, nc.expsum.minor_arc_sup(system, dissection, M, N, step)
    if kind in ("planted", "window", "exhaust"):
        return nc.search.find_solution(*args)
    if kind == "exists":
        return nc.search.solution_exists(*args)
    if kind == "thresholds":
        return nc.search.threshold_scan(*args)
    raise ValueError(f"unknown op kind {kind}")


def summarize(spec: dict, out) -> dict:
    """Untimed: the op's output reduced to a small JSON-able record."""
    kind = spec["kind"]
    if kind == "series":
        terms = dict(out.terms)
        euler = 1.0 + terms[3] + terms.get(9, 0.0) + terms.get(27, 0.0)
        for p in oracles.primes_upto(out.euler_pmax):
            if p != 3:
                euler *= 1.0 + terms[p]
        return {"value": out.value, "terms_fsum": math.fsum(terms.values()),
                "euler_value": out.euler_value, "euler_pmax": out.euler_pmax,
                "euler_from_terms": euler, "support": support_digest(list(terms)),
                "sample": {str(q): t for q, t in out.terms if q <= 60},
                "far": {str(q): terms[q] for q in far_sample(spec) if q in terms}}
    if kind == "local":
        return {"N": str(out.unit_solutions), "A": out.series_term, "s": out.euler_factor}
    if kind == "chars":
        tabs = np.array(out)
        q = spec["q"]
        orth = tabs.sum(axis=0) - oracles.phi(q) * np.exp(2j * np.pi * np.arange(q) / q)
        return {"count": len(out), "energy": float((np.abs(tabs) ** 2).sum()),
                "orth_err": float(np.abs(orth).max())}
    if kind == "point":
        return {"r_direct": out.r_direct, "r_fourier": out.r_fourier, "main_term": out.main_term,
                "ratio": out.ratio}
    if kind in ("full_sparse", "full_dense"):
        vals = out.values
        idx = np.arange(len(vals), dtype=np.float64) + out.offset
        rec = {"lo": int(out.offset), "len": len(vals), "mass": float(vals.sum()),
               "mean": float(np.dot(idx, vals) / vals.sum())}
        if kind == "full_sparse":
            rec["probes"] = [out.coefficient(n) for n in spec["probes"]]
        return rec
    if kind == "scan":
        dis, rep = out
        return {"P": dis.P, "Q": dis.Q, "arcs": len(dis.arcs), "measure": str(dis.major_measure),
                "points_total": rep.points_total, "points_minor": rep.points_minor,
                "sup_abs": rep.sup_abs}
    if kind in ("planted", "window", "exhaust"):
        if hasattr(out, "primes"):
            return {"found": True, "primes": list(out.primes), "max_p": out.max_p,
                    "found_by": out.found_by}
        return {"found": False, "states_visited": out.states_visited}
    if kind == "exists":
        return {"exists": bool(out)}
    if kind == "thresholds":
        return {"rows": [[r.n, r.max_p] for r in out]}
    raise ValueError(f"unknown op kind {kind}")


def far_sample(spec: dict) -> list[int]:
    """Moduli beyond 60 whose A(q) a series op is checked at: a prime above
    500 (above x/2 when x <= 500), where the Euler factor's float count
    acts, and a composite in the top tenth of [1, x], which above 1000 is
    assembled from prime powers.  Picked from the spec, so reproducible."""
    x = spec["x"]
    rng = random.Random(json.dumps([spec["coeffs"], spec["n"], x]))
    support = [q for q in range(61, x + 1) if oracles.series_support(q)]
    primes = [q for q in support if q > (500 if x > 500 else x // 2) and oracles.factor(q) == [(q, 1)]]
    composites = [q for q in support if q > x - x // 10 and len(oracles.factor(q)) > 1]
    return [rng.choice(pool) for pool in (primes, composites) if pool]


def support_digest(qs: list[int]) -> str:
    return hashlib.sha256(",".join(map(str, qs)).encode()).hexdigest()[:16]


def cube_window_T(coeffs, n: int, M: int, N: int) -> int:
    """The Fourier sampling length implied by the supports (computed, not measured)."""
    slots = [oracles.window_primes(a, M, N) for a in coeffs]
    if any(not s for s in slots):
        return 0
    k_min, k_max = oracles.attainable(coeffs, slots)
    if not k_min <= n <= k_max:
        return 0
    return 1 << max(k_max - n, n - k_min, 1).bit_length()


# one tiny op of every kind, run before timing in every workload so that
# each layer has been imported and called once; its coefficient systems are
# not the timed ones, so no timed op finds its own A(q) or N(q) cached
WARMUP = (
    {"kind": "series", "coeffs": [1] * 9, "n": 23, "x": 30},
    {"kind": "local", "coeffs": [1] * 9, "n": 23, "q": 503},
    {"kind": "chars", "q": 5},
    {"kind": "point", "coeffs": [1] * 9, "n": 9 * 343, "M": 200, "N": 2000},
    {"kind": "full_sparse", "coeffs": [1] * 9, "M": 1000, "N": 10**4, "probes": []},
    {"kind": "full_dense", "coeffs": [1] * 9, "M": 100, "N": 1000},
    {"kind": "scan", "coeffs": [1] * 9, "n": 1, "M": 1000, "N": 10**4, "D": 2, "grid_step": 0.05},
    {"kind": "planted", "coeffs": [1] * 9, "n": 9 * 8 + 19, "bound": 16},
    {"kind": "exists", "coeffs": [1] * 9, "n": 99, "bound": 10},
    {"kind": "thresholds", "grid": [[1] * 9], "n_lo": 60, "n_hi": 90, "bound": 10},
)
