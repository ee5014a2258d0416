"""Independent reference computations for checking benchmark outputs.

Nothing here imports ninecubes: every expected value is computed by a
different method than the library uses, so a check catches a wrong
answer rather than repeating it.

- N(q), the unit solution count mod q, is an exact cyclic convolution
  of cube histograms done with Python integers (Kronecker substitution).
- A(q) follows from N by Moebius inversion of rho(d) = d N(d) / phi(d)^9,
  since rho(q) = sum over d | q of A(d).
- The singular integral J(n) is read from one FFT product over the whole
  index range; the library crops partial products stage by stage.
- r(n) and its exact tuple count come from a meet-in-the-middle join of
  the nine prime-cube supports.
- Search answers (least max prime, then least tuple) come from bitmap
  reachability over the signed partial sums.
- Arc membership is decided in exact rational arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

EPS = 2.0**-52


def primes_upto(limit: int) -> list[int]:
    """Primes <= limit by a plain sieve."""
    if limit < 2:
        return []
    mark = bytearray([1]) * (limit + 1)
    mark[0] = mark[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if mark[p]:
            mark[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i, m in enumerate(mark) if m]


def icbrt(n: int) -> int:
    r = round(n ** (1.0 / 3.0)) if n > 0 else 0
    while r**3 > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return r


def window_primes(a: int, M: int, N: int) -> list[int]:
    """Primes p with M < |a| p^3 <= N."""
    mag = abs(a)
    return [p for p in primes_upto(icbrt(N // mag)) if M < mag * p**3 <= N]


def attainable(coeffs, slots: list[list[int]]) -> tuple[int, int]:
    """Least and greatest sum a_1 p_1^3 + ... + a_9 p_9^3 with p_j from slots[j]."""
    lo = sum(min(a * p**3 for p in ps) for a, ps in zip(coeffs, slots))
    hi = sum(max(a * p**3 for p in ps) for a, ps in zip(coeffs, slots))
    return lo, hi


def factor(n: int) -> list[tuple[int, int]]:
    out, m, p = [], n, 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1
    if m > 1:
        out.append((m, 1))
    return out


def phi(n: int) -> int:
    val = n
    for p, _ in factor(n):
        val = val // p * (p - 1)
    return val


def mobius(n: int) -> int:
    f = factor(n)
    if any(e > 1 for _, e in f):
        return 0
    return -1 if len(f) % 2 else 1


def series_support(q: int) -> bool:
    """A(q) can be nonzero only for q = 3^e m, e <= 3, m squarefree and prime to 3."""
    return all(e <= (3 if p == 3 else 1) for p, e in factor(q))


# --- local data -------------------------------------------------------------


def _cyclic_mul(u: int, v: int, q: int, width: int) -> int:
    """Product of two packed length-q vectors, folded mod x^q - 1."""
    raw = (u * v).to_bytes(width * 2 * q, "little")
    lo, hi = raw[: width * q], raw[width * q :]
    vals = [
        int.from_bytes(lo[i : i + width], "little") + int.from_bytes(hi[i : i + width], "little")
        for i in range(0, width * q, width)
    ]
    return int.from_bytes(b"".join(x.to_bytes(width, "little") for x in vals), "little")


@lru_cache(maxsize=4096)
def unit_count(q: int, coeffs: tuple[int, ...], n: int) -> int:
    """Exact number of unit 9-tuples mod q with sum a_j x_j^3 = n mod q."""
    if q == 1:
        return 1
    cubes = [x * x * x % q for x in range(q) if math.gcd(x, q) == 1]
    width = (9 * len(cubes).bit_length() + 8) // 8 + 1  # bytes per packed slot
    acc = None
    for a in coeffs:
        hist = [0] * q
        for c in cubes:
            hist[a * c % q] += 1
        packed = int.from_bytes(b"".join(h.to_bytes(width, "little") for h in hist), "little")
        acc = packed if acc is None else _cyclic_mul(acc, packed, q, width)
    raw = acc.to_bytes(width * q, "little")
    t = n % q
    return int.from_bytes(raw[t * width : (t + 1) * width], "little")


def series_term(q: int, coeffs: tuple[int, ...], n: int) -> Fraction:
    """A(q) exactly, by Moebius inversion of the unit-count densities."""
    total = Fraction(0)
    for d in range(1, q + 1):
        if q % d == 0:
            mu = mobius(q // d)
            if mu:
                reduced = tuple(a % d for a in coeffs)
                total += mu * Fraction(d * unit_count(d, reduced, n % d), phi(d) ** 9)
    return total


def series_sum(coeffs, n: int, x: int) -> tuple[Fraction, Fraction]:
    """(sum of A(q), sum of |A(q)|) over the support q <= x, exactly."""
    terms = [series_term(q, tuple(coeffs), n) for q in range(1, x + 1) if series_support(q)]
    return sum(terms, Fraction(0)), sum(map(abs, terms), Fraction(0))


# --- singular integral ------------------------------------------------------


def singular_integral(coeffs, M: int, N: int, n: int) -> tuple[float, float]:
    """(J(n), error bound): J(n) sums (m_1 ... m_9)^(-2/3) over sum a_j m_j = n,
    M < |a_j| m_j <= N.

    One FFT product of all nine weight arrays over their whole index range,
    read at n; the bound is 64 eps log2(length) times the product of the
    weight sums.
    """
    lo, length, spectrum, mass = 0, 1, None, 1.0
    cols = []
    for a in coeffs:
        mag = abs(a)
        m = np.arange(M // mag + 1, N // mag + 1, dtype=np.float64)
        if not len(m):
            return 0.0, 0.0
        idx = a * m.astype(np.int64)
        cols.append((idx - idx.min(), m ** (-2.0 / 3.0)))
        lo += int(idx.min())
        length += int(idx.max() - idx.min())
        mass *= math.fsum(cols[-1][1].tolist())
    nfft = 1 << (length - 1).bit_length()
    for pos, w in cols:
        grid = np.zeros(nfft)
        grid[pos] = w
        f = np.fft.rfft(grid)
        spectrum = f if spectrum is None else spectrum * f
    value = float(np.fft.irfft(spectrum, nfft)[n - lo]) if 0 <= n - lo < length else 0.0
    return value, 64 * EPS * math.log2(nfft) * mass


# --- weighted counts --------------------------------------------------------


def _half_join(slots: list[list[int]], coeffs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct partial sums over the given slots with summed log weights and counts."""
    sums = np.zeros(1, dtype=np.int64)
    logw = np.ones(1)
    for ps, a in zip(slots, coeffs):
        arr = np.asarray(ps, dtype=np.int64)
        sums = (sums[:, None] + a * arr[None, :] ** 3).ravel()
        logw = (logw[:, None] * np.log(arr.astype(np.float64))[None, :]).ravel()
    keys, inv = np.unique(sums, return_inverse=True)
    w = np.zeros(len(keys))
    np.add.at(w, inv, logw)
    cnt = np.bincount(inv, minlength=len(keys))
    return keys, w, cnt


def weighted_count(coeffs, M: int, N: int, targets) -> list[tuple[float, int]]:
    """(r(n), exact tuple count) for each target n over the window (M, N]."""
    slots = [window_primes(a, M, N) for a in coeffs]
    if any(not s for s in slots):
        return [(0.0, 0) for _ in targets]
    lk, lw, lc = _half_join(slots[:4], coeffs[:4])
    rk, rw, rc = _half_join(slots[4:], coeffs[4:])
    out = []
    for n in targets:
        need = n - rk
        pos = np.clip(np.searchsorted(lk, need), 0, len(lk) - 1)
        hit = lk[pos] == need
        r = math.fsum((rw[hit] * lw[pos[hit]]).tolist())
        count = int((rc[hit] * lc[pos[hit]]).sum())
        out.append((r, count))
    return out


# --- search -----------------------------------------------------------------


class Reach:
    """Bitmap of the signed sums a_j p_j^3 reachable over a list of slots."""

    def __init__(self, slots: list[list[int]], coeffs) -> None:
        self.offset = 0
        self.bits = np.ones(1, dtype=bool)
        for ps, a in zip(reversed(slots), reversed(list(coeffs))):
            vals = [a * p**3 for p in ps]
            lo, hi = min(vals), max(vals)
            nxt = np.zeros(len(self.bits) + hi - lo, dtype=bool)
            for v in vals:
                s = v - lo
                nxt[s : s + len(self.bits)] |= self.bits
            self.bits, self.offset = nxt, self.offset + lo

    def __contains__(self, n: int) -> bool:
        i = n - self.offset
        return 0 <= i < len(self.bits) and bool(self.bits[i])


def best_solution(coeffs, n: int, slots: list[list[int]], max_p: int) -> tuple[int, ...] | None:
    """Least tuple (lexicographic) solving the equation with all primes <= max_p."""
    capped = [[p for p in ps if p <= max_p] for ps in slots]
    if any(not ps for ps in capped):
        return None
    suffix = [Reach(capped[j:], coeffs[j:]) for j in range(1, 9)] + [Reach([], [])]
    chosen, rest = [], n
    for j in range(9):
        pick = next((p for p in capped[j] if rest - coeffs[j] * p**3 in suffix[j]), None)
        if pick is None:  # only possible at j = 0: n is unreachable
            return None
        chosen.append(pick)
        rest -= coeffs[j] * pick**3
    return tuple(chosen)


def solvable_below(coeffs, n: int, slots: list[list[int]], max_p: int) -> bool:
    """True when some solution uses only primes < max_p."""
    capped = [[p for p in ps if p < max_p] for ps in slots]
    return all(capped) and n in Reach(capped, coeffs)


def reachable_upto(coeffs, primes: list[int], n_max: int) -> np.ndarray:
    """reach[n] for 0 <= n <= n_max, all-positive coefficients."""
    reach = np.zeros(n_max + 1, dtype=bool)
    reach[0] = True
    for a in coeffs:
        nxt = np.zeros_like(reach)
        for p in primes:
            v = a * p**3
            if v <= n_max:
                nxt[v:] |= reach[: n_max + 1 - v]
        reach = nxt
    return reach


# --- arcs -------------------------------------------------------------------


def arc_params(N: int, D: int, epsilon: float, c: float) -> tuple[int, int]:
    P = max(1, int((N / D) ** (0.1 - epsilon)))
    return P, int(N / (P * math.log(N) ** c))


def is_major(alpha: float, P: int, Q: int) -> bool:
    """alpha within 1/(qQ) of some a/q with q <= P, decided exactly."""
    x = Fraction(alpha)
    x -= math.floor(x)
    if x < Fraction(1, Q):
        x += 1
    for q in range(1, P + 1):
        a = round(x * q)
        if 1 <= a <= q and math.gcd(a, q) == 1 and abs(x * q - a) * Q <= 1:
            return True
    return False
