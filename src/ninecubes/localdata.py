"""Local (mod q) data attached to a nine-coefficient cubic system.

For a system a_1 x_1^3 + ... + a_9 x_9^3 = n the objects computed here are

    C_chi(a)  = sum_{k=1..q} chi(k) e(a k^3 / q)
    B(q)      = sum_{k mod q, gcd(k,q)=1} e(-k n / q) prod_j C_{chi_0}(a_j k)
    F(q)      = the same sum over all k mod q
    A(q)      = B(q) / phi(q)^9
    N(q)      = #{unit 9-tuples (x_j) with sum a_j x_j^3 = n mod q}
    s(p)      = 1 + A(p) = p N(p) / phi(p)^9

A(q) is the per-modulus term of the singular series.  B(p) at primes
p != 3 is exact from one closed-form pass over a tuple of primes (cubic
Gauss and Jacobi sums, one character index per distinct coefficient), which
a series makes once, so it fills no N(q) cache.  N(q) is exact and
allocates no array: from B(p) at a prime p != 3; at 3 and 9 from the signs
of unit cubes mod 9; by Hensel lifting at prime powers; at composite q as a
product over prime powers of the cached N(p).  A prime dividing every a_j is
refused.  B(p^e) and exact_term(q) = A(q) follow exactly.  The twisted sums
B(q) and F(q) over layouts of moduli and the convolutions are the definition
routes, held to the counts at 1e-9 by check_routes (s(p) in euler_factor).

What depends on the modulus alone is cached for every system: the last 8
layouts, the only holders of units, of C_{chi_0} and root tables for the
twisted sums and of the factors C_{chi_0}(+-k) that every +-1 slot reads,
C_{chi_0} per q, factorizations, and per prime p = 1 mod 3
its period algebra, with the powers of eta_0 that carry the +-1 slots.  N(q) and
A(q) are cached by (q, system), a blocked pass's A(p) by (moduli, system).
C_chi for non-principal chi is computed a block of characters at a time
(at most CHAR_BLOCK cells, at least one row) in one pass with one batched
inverse FFT; only the last block is cached, and its rows are read-only.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import arith, convolve
from .characters import DirichletCharacter, character_values
from .errors import DomainError, NumericIntegrityError, ResourceLimitError

LOCAL_Q_CAP = 10**6
EXACT_COUNT_CAP = 2 * 10**4
PARITY_VIOLATION = (
    "parity violated: sum of coefficients and n differ mod 2 "
    "(solutions then need some x_j = 2, which the odd-prime windows exclude)"
)


@dataclass(frozen=True)
class CoefficientSystem:
    """Nine nonzero integer coefficients and the target n; any other shape is refused."""

    a: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", tuple(map(arith.integral, self.a)))
        object.__setattr__(self, "n", arith.integral(self.n))
        if len(self.a) != 9:
            raise DomainError(f"expected 9 coefficients, got {len(self.a)}")
        if any(x == 0 for x in self.a):
            raise DomainError("coefficients must be nonzero")
        # cache keys hash a system, exact counts read its distinct a_j and gcd: each made once
        object.__setattr__(self, "_hash", hash((self.a, self.n)))
        object.__setattr__(self, "_distinct", tuple({a: self.a.count(a) for a in self.a}.items()))
        object.__setattr__(self, "_gcd", math.gcd(*self.a))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def make(cls, coeffs, n: int) -> "CoefficientSystem":
        return cls(coeffs, n)

    @property
    def size_bound(self) -> int:
        """D = max(2, |a_1|, ..., |a_9|)."""
        return max(2, max(abs(x) for x in self.a))

    @property
    def coefficient_product(self) -> int:
        return math.prod(self.a)

    def violations(self) -> list[str]:
        """The solvability conditions the system breaks, in this order: parity
        sum(a) = n mod 2 (PARITY_VIOLATION), pairwise coprime coefficients,
        and gcd(n, a_1, ..., a_9) = 1.  Empty means none."""
        a, n = self.a, self.n
        problems = [PARITY_VIOLATION] if (sum(a) - n) % 2 else []
        problems += [
            f"coefficients {i + 1} and {j + 1} share a factor gcd({a[i]},{a[j]}) > 1"
            for i, j in itertools.combinations(range(9), 2)
            if math.gcd(a[i], a[j]) != 1
        ]
        if math.gcd(n, self._gcd) != 1:
            problems.append("gcd of n with all coefficients exceeds 1")
        return problems


def _check_q(q: int, cap: int) -> None:
    if q < 1:
        raise DomainError(f"modulus must be >= 1, got {q}")
    if q > cap:
        raise ResourceLimitError(f"modulus {q} exceeds cap {cap}")


def _units(q: int) -> np.ndarray:
    """The units mod q, ascending."""
    return np.flatnonzero(np.gcd(np.arange(q, dtype=np.int64), q) == 1)


def _cubes(k: np.ndarray, q: int) -> np.ndarray:
    """k^3 mod q, elementwise."""
    return (k * k % q) * k % q


def _principal_table(q: int, units: np.ndarray) -> np.ndarray:
    """C_{chi_0}(a) for a = 0..q-1 from the units mod q, via the DFT of their cubes' histogram."""
    hist = np.bincount(_cubes(units, q), minlength=q).astype(np.float64)
    # C(a) = sum_r hist[r] e(a r / q) = q * ifft(hist)[a]
    return q * np.fft.ifft(hist)


@lru_cache(maxsize=4096)
def principal_cubic_table(q: int) -> np.ndarray:
    """C_{chi_0}(a) for a = 0..q-1, read-only."""
    _check_q(q, LOCAL_Q_CAP)
    tab = _principal_table(q, _units(q))
    tab.flags.writeable = False
    return tab


BLOCK = 1 << 13  # elements per block of whole moduli in the twisted-sum pass
CHAR_BLOCK = 1 << 17  # cells (characters x residues) per block of C_chi tables


def cubic_char_sum_table(chi: DirichletCharacter) -> np.ndarray:
    """C_chi(a) for a = 0..q-1, read-only.  A non-principal chi reads its row
    of the one cached block of characters that holds it: a kept row pins its
    whole block (up to CHAR_BLOCK cells), and a walk over the characters out
    of order recomputes a block on every call."""
    q = chi.modulus
    _check_q(q, LOCAL_Q_CAP)
    if chi.is_principal:
        return principal_cubic_table(q)
    block, row = divmod(chi.index, max(1, CHAR_BLOCK // q))
    return _char_sum_block(q, block)[row]


@lru_cache(maxsize=1)
def _char_sum_block(q: int, block: int) -> np.ndarray:
    """C_chi for one block of character_group(q): each cube's d preimages (the
    units sorted by cube, then by value) added in ascending order, as np.add.at would."""
    rows = max(1, CHAR_BLOCK // q)
    units = arith.unit_group(q).units.ravel()
    start, stop = block * rows, min(block * rows + rows, len(units))
    cube = _cubes(units, q)
    order = np.lexsort((units, cube))  # positions in the unit group's power table
    d = len(order) // np.count_nonzero(np.bincount(cube, minlength=q))
    vals = character_values(q, start, stop, order).reshape(stop - start, -1, d)
    acc = vals[..., 0]  # summed in place: no temporaries beside the block
    for j in range(1, d):
        acc += vals[..., j]
    hist = np.zeros((stop - start, q), dtype=np.complex128)
    hist[:, cube[order[::d]]] = acc
    del vals, acc
    np.fft.ifft(hist, axis=1, out=hist)  # in place: no second block-sized array
    hist *= q
    hist.flags.writeable = False
    return hist


@lru_cache(maxsize=1)
def _char_sum_bound(q: int) -> np.ndarray:
    (p, alpha), = arith.factorize(q) or [(1, 0)]  # q = 1 = 1^0
    return 3 * math.gcd(3, p) * np.sqrt(np.gcd(np.arange(q), q)) * p ** (alpha / 2) + 1e-6


def char_sum_bound_ok(chi: DirichletCharacter) -> np.ndarray:
    """For a = 0..q-1, whether |C_chi(a)| <= 3 (3,p) (a, p^alpha)^(1/2) p^(alpha/2),
    from one cubic_char_sum_table, up to 1e-6 of rounding.  Characters live at
    prime-power moduli q = p^alpha only, so q has one prime factor."""
    return np.abs(cubic_char_sum_table(chi)) <= _char_sum_bound(chi.modulus)


class _Layout(NamedTuple):
    """Per element: a k summed at its modulus q (units, or all residues) and
    the +-1 slots' factors C_{chi_0}(k) and C_{chi_0}(-k), which every system
    reads.  Per modulus: its offset in `tables` and `roots`, which hold
    C_{chi_0}(j) and e(j / q) for j = 0..q, entry q repeating entry 0 (a = -1
    reads q - k, even at k = 0).  The k of moduli[i] are k[bounds[i]:bounds[i + 1]]."""

    moduli: tuple[int, ...]
    bounds: tuple[int, ...]
    k: np.ndarray
    q: np.ndarray
    offs: np.ndarray
    tables: np.ndarray
    roots: np.ndarray
    plus: np.ndarray
    minus: np.ndarray


@lru_cache(maxsize=8)
def _layout(qs: tuple[int, ...], units_only: bool) -> _Layout:
    """The layout of moduli qs, units only or all residues, with its own tables."""
    for q in (min(qs), max(qs)):
        _check_q(q, LOCAL_Q_CAP)
    units = [_units(q) for q in qs]
    ks = units if units_only else [np.arange(q) for q in qs]
    counts = [len(k) for k in ks]
    dtype = np.int32 if max(qs) ** 2 < 2**31 else np.int64  # holds r k < q^2
    offs = np.cumsum([0] + [q + 1 for q in qs[:-1]])  # intp, as take reads them

    def periodic(fn) -> np.ndarray:
        # filled in place: a list of the small per-q tables would fragment the heap
        out = np.empty(offs[-1] + qs[-1] + 1, dtype=np.complex128)
        for o, q, u in zip(offs.tolist(), qs, units):
            out[o : o + q] = fn(q, u)
            out[o + q] = out[o]
        return out

    tables = periodic(_principal_table)
    roots = periodic(lambda q, u: np.exp(2j * np.pi * np.arange(q) / q))  # as unit_roots(q)
    bounds = tuple(itertools.accumulate(counts, initial=0))
    k, q = np.concatenate(ks, dtype=dtype), np.repeat(np.array(qs, dtype), counts)
    off = np.repeat(offs, counts)
    return _Layout(qs, bounds, k, q, offs, tables, roots, tables.take(off + k), tables.take(off + q - k))


def _twisted_sums(layout: _Layout, system: CoefficientSystem) -> list[complex]:
    """sum_k e(-n k / q) prod_j C_{chi_0}(a_j k) at each modulus of the layout, over
    blocks of whole moduli so temporaries stay small: the root gather, one table
    gather per distinct a_j other than +-1 (those read the layout's factors),
    multiplied in slot order, one pairwise .sum() per modulus.  Each twist x is read at
    off + (x mod q) k mod q, with x reduced mod q in Python ints, so any size works."""
    qs, bounds = layout.moduli, layout.bounds
    counts = np.diff(bounds)
    general = set(system.a) - {1, -1}
    res = {x: np.array([x % q for q in qs], layout.k.dtype) for x in general | {-system.n}}
    sums: list[complex] = []
    i0 = 0
    while i0 < len(qs):
        i1 = bisect.bisect_left(bounds, bounds[i0] + BLOCK, i0 + 1, len(qs))
        b0, b1 = bounds[i0], bounds[i1]
        k, q, off = layout.k[b0:b1], layout.q[b0:b1], np.repeat(layout.offs[i0:i1], counts[i0:i1])

        def at(x: int) -> np.ndarray:
            return off + np.repeat(res[x][i0:i1], counts[i0:i1]) * k % q

        total = layout.roots.take(at(-system.n))
        factors = {1: layout.plus[b0:b1], -1: layout.minus[b0:b1]}
        factors.update({a: layout.tables.take(at(a)) for a in general})
        for a in system.a:
            total *= factors[a]
        cuts = bounds[i0 : i1 + 1]
        sums += [complex(total[s - b0 : e - b0].sum()) for s, e in zip(cuts, cuts[1:])]
        i0 = i1
    return sums


def _series_values(layout: _Layout, system: CoefficientSystem) -> tuple[float, ...]:
    """A(q) = B(q) / phi(q)^9 at each modulus of a units layout, verified real."""
    out, bounds = [], layout.bounds
    for q, b0, b1, b in zip(layout.moduli, bounds, bounds[1:], _twisted_sums(layout, system)):
        scale = 1.0 + abs(b)
        if abs(b.imag) > 1e-9 * scale:
            raise NumericIntegrityError(f"A({q}) has imaginary part {b.imag:.3e} (scale {scale:.3e})")
        out.append(b.real / (b1 - b0) ** 9)  # phi(q) units were summed
    return tuple(out)


def principal_twisted_sum(q: int, system: CoefficientSystem, units_only: bool) -> complex:
    """B(q) (k coprime to q) or F(q) (all k mod q) at principal characters."""
    return _twisted_sums(_layout((q,), units_only), system)[0]


@lru_cache(maxsize=200000)
def series_term(q: int, system: CoefficientSystem) -> float:
    """A(q) = B(q at principal characters) / phi(q)^9, verified real."""
    return _series_values(_layout((q,), True), system)[0]


@lru_cache(maxsize=256)
def series_terms(qs: tuple[int, ...], system: CoefficientSystem) -> tuple[float, ...]:
    """A(q) at each modulus of qs in one blocked pass, bit-identical to series_term."""
    return _series_values(_layout(qs, True), system)


def _unit_cube_histograms(q: int, system: CoefficientSystem) -> list[np.ndarray]:
    """Histogram of a_j u^3 mod q over units u, per slot.

    One bincount per distinct a_j mod q; slots with equal residues share
    one read-only array.
    """
    cubes = _cubes(_units(q), q)
    hists: dict[int, np.ndarray] = {}
    for r in (aj % q for aj in system.a):
        if r not in hists:
            hists[r] = np.bincount(r * cubes % q, minlength=q)
            hists[r].flags.writeable = False
    return [hists[aj % q] for aj in system.a]


def _count_by_convolution(q: int, system: CoefficientSystem) -> int:
    """N(q) by definition: slots 1-4 and 5-9 each folded by cyclic int64
    convolutions of unit-cube histograms, whose cells stay <= phi(q)^5 < 2^63
    (checked before any allocation), then joined at n mod q in Python ints."""
    _check_q(q, EXACT_COUNT_CAP)
    if arith.euler_phi(q) ** 5 >= 2**63:
        raise ResourceLimitError(f"phi({q})^5 overflows the int64 convolution count")

    def fold(hists: list[np.ndarray]) -> list[int]:
        acc = hists[0]
        for h in hists[1:]:
            full = np.convolve(acc, h)
            full[: q - 1] += full[q:]
            acc = full[:q]
        return acc.tolist()

    hists = _unit_cube_histograms(q, system)
    left, right = fold(hists[:4]), fold(hists[4:])
    return sum(left[r] * right[(system.n - r) % q] for r in range(q))


def _primary_prime(p: int) -> tuple[int, int]:
    """(x, y) with x + y w primary (x = 2, y = 0 mod 3) of norm x^2 - x y + y^2 = p = 1 mod 3.

    Of the two primary primes of norm p, pi and its conjugate, exactly one
    has y > 0.
    """
    for y in range(3, math.isqrt(4 * p // 3) + 1, 3):
        disc = 4 * p - 3 * y * y
        s = math.isqrt(disc)
        if s * s == disc:
            for x in ((y + s) // 2, (y - s) // 2):
                if x % 3 == 2:
                    return x, y
    raise NumericIntegrityError(f"no primary prime of norm {p}")


@lru_cache(maxsize=2048)
def _period_algebra(p: int) -> tuple[dict[int, int], tuple, tuple]:
    """The cubic period algebra at a prime p = 1 mod 3, a function of p alone:
    the map w^i -> i on the cube roots of unity mod p, times[j], the matrix of
    multiplication by eta_j on (eta_0, eta_1, eta_2), where 1 = -(eta_0 + eta_1 + eta_2),
    and eta_0^k for k <= 10 in those coordinates (all +-1 slots and an n of +-1 at once).

    Let R_i = {t : chi(t) = w^i}, f = (p-1)/3 and eta_i the Gaussian
    period, the sum of e(t / p) over R_i.  Periods multiply by the
    cyclotomic numbers (h, m) = #{u in R_h : 1 + u in R_m}:
    eta_a eta_b = f [a = b] + sum_m (b - a, m) eta_(a+m).  Fourier
    inversion over the Jacobi sums J(chi, chi) = pi,
    J(chi^2, chi^2) = conj(pi) and J(chi, chi^2) = -1 gives
    9 (h, m) = p - 2 - t(h) - t(m) - t(h + 2m) + Tr(w^-(h+m) pi), where
    t(k) = 2 if 3 | k, else -1.
    """
    x, y = _primary_prime(p)
    w = -x * pow(y, -1, p) % p  # w = -x / y mod pi
    index, f = {1: 0, w: 1, w * w % p: 2}, (p - 1) // 3
    t, trace = (2, -1, -1), (2 * x - y, 2 * y - x, -x - y)  # Tr(w^-s pi) for s = 0, 1, 2
    cyclotomic = {}
    for h, m in itertools.product(range(3), repeat=2):
        nine = p - 2 - t[h] - t[m] - t[(h + 2 * m) % 3] + trace[(h + m) % 3]
        if nine % 9:
            raise NumericIntegrityError(f"cyclotomic number ({h}, {m}) mod {p} is {nine}/9")
        cyclotomic[h, m] = nine // 9
    times = tuple(tuple(tuple(cyclotomic[(j - a) % 3, (k - a) % 3] - f * (a == j) for a in range(3))
                        for k in range(3)) for j in range(3))
    powers = itertools.accumulate(range(10), lambda v, _: _times(times[0], v, 1), initial=(-1, -1, -1))
    return index, times, tuple(powers)


def _times(matrix: tuple, v: tuple[int, int, int], k: int) -> tuple[int, int, int]:
    """matrix^k v for a 3 x 3 integer matrix."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = matrix
    x, y, z = v
    for _ in range(k):
        x, y, z = a0 * x + a1 * y + a2 * z, b0 * x + b1 * y + b2 * z, c0 * x + c1 * y + c2 * z
    return x, y, z


def prime_sums(primes, system: CoefficientSystem):
    """B(p) at each prime p != 3 of primes, in closed form from J(chi, chi) = pi,
    yielded in order, so a caller reads each B(p) when it reaches p.  The
    coefficients are split into +-1 slots and the rest once per call; a prime
    dividing every a_j is refused, and each B(p) is held to p | phi(p)^9 + B(p).

    The r slots with p | a_j give C(0) = p - 1 each, and the k-sum of
    e(-k n / p) is c_p(n) = p - 1 if p | n, else -1.  For p = 2 mod 3
    cubing permutes the units, so every other C(a_j k) is -1.

    For p = 1 mod 3 and k in R_c (see _period_algebra), C(a_j k) = 3 eta_(i_j + c)
    with chi(a_j) = w^(i_j), read once per distinct a_j from a_j^f mod pi (i_j = 0
    at a_j = +-1: -1 is a cube), and the twists e(-k n / p) sum to eta_(c + i_n),
    or to f if p | n.  The sum over c is the trace: x eta_0 + y eta_1 + z eta_2 -> -(x + y + z).
    """
    n, gcd = system.n, system._gcd
    general = [(a, m) for a, m in system._distinct if a not in (1, -1)]
    units = 9 - sum(m for _, m in general) + (n in (1, -1))  # slots of index 0, n's twist included
    twists = general if n in (1, -1) else general + [(n, 1)]
    for p in primes:
        if gcd % p == 0:
            raise DomainError(f"N({p}) needs some coefficient prime to {p}, which divides every a_j")
        r = sum(m for a, m in general if a % p == 0)
        if p % 3 != 1:
            b = (-1) ** (9 - r) * (p - 1) ** r * (p - 1 if n % p == 0 else -1)
        else:
            index, times, powers = _period_algebra(p)
            f, v = (p - 1) // 3, powers[units]
            for a, m in twists:
                if a % p:
                    v = _times(times[index[pow(a, f, p)]], v, m)
            b = -(3 ** (9 - r)) * (p - 1) ** r * (f if n % p == 0 else 1) * sum(v)
        if (total := (p - 1) ** 9 + b) % p:
            raise NumericIntegrityError(f"closed form phi({p})^9 + B({p}) = {total}"
                                        f" is not a multiple of {p}")
        yield b


def _prime_count(p: int, system: CoefficientSystem) -> int:
    """N(p) = (phi(p)^9 + B(p)) / p at a prime p != 3, with B(p) from prime_sums."""
    return ((p - 1) ** 9 + next(prime_sums((p,), system))) // p


def _sign_count(m: int, system: CoefficientSystem) -> int:
    """#{e in {-1, 1}^9 : sum a_j e_j = n mod m}, by one pass over residues per slot."""
    ways = [1] + [0] * (m - 1)
    for a in system.a:
        ways = [ways[(r - a) % m] + ways[(r + a) % m] for r in range(m)]
    return ways[system.n % m]


@lru_cache(maxsize=65536)
def unit_solution_count(q: int, system: CoefficientSystem) -> int:
    """N(q): unit 9-tuples with sum a_j x_j^3 = n mod q, exact.

    The product over the prime powers p^e of q.  With some a_j prime to p,
    Hensel lifting gives N(p^e) = p^(8(e-1)) N(p) for p != 3, with N(p) in closed
    form at q = p, else from this cache, and N(3^e) = 3^(8(e-2)) N(9) for e >= 2.
    A unit cubes to -1 or 1 mod 9 (three units each) and mod 3 (one each), so
    N(3^k) is 3^(9(k-1)) times a sign count for k <= 2.  A prime dividing every
    a_j is refused: pairwise-coprime coefficients never share one.
    """
    _check_q(q, LOCAL_Q_CAP)
    count = 1
    for p, e in arith.factorize(q):
        if system._gcd % p == 0:
            raise DomainError(f"N({q}) needs some coefficient prime to {p}, which divides every a_j")
        if p == 3:
            k = min(e, 2)
            count *= 3 ** (8 * (e - k) + 9 * (k - 1)) * _sign_count(3**k, system)
        else:
            count *= p ** (8 * (e - 1)) * (_prime_count if p == q else unit_solution_count)(p, system)
    return count


def prime_power_sum(p: int, e: int, system: CoefficientSystem) -> int:
    """B(p^e) = phi(p^e)^9 A(p^e), exact from A(p^e) = g(p^e) - g(p^(e-1)), g(d) = d N(d) / phi(d)^9,
    N(d) cached; phi(p^e) / phi(p^(e-1)) is the integer lifts."""
    q, lifts = p**e, (p - 1 if e == 1 else p)
    low = q // p * lifts**9 * (unit_solution_count(q // p, system) if e > 1 else 1)
    return q * unit_solution_count(q, system) - low


def exact_term(q: int, system: CoefficientSystem) -> float:
    """A(q) correctly rounded: the product of the exact B(p^e) over phi(q)^9, one division."""
    b_q = math.prod(prime_power_sum(p, e, system) for p, e in arith.factorize(q))
    return b_q / arith.euler_phi(q) ** 9


def unit_solution_count_float(q: int, system: CoefficientSystem) -> float:
    """Float shadow of N(q) via FFT convolutions; ~1e-12 relative accuracy.

    Coefficient n mod q of the length-q cyclic product of the nine
    unit-cube histograms, read by convolve.spectral_coefficient with one
    rfft per distinct histogram: slots whose coefficients differ by a cube
    unit factor (a and -a always; any two units when 3 does not divide
    phi(q)) share one.
    """
    _check_q(q, LOCAL_Q_CAP)
    parts = [convolve.IndexedWeights(0, h) for h in _unit_cube_histograms(q, system)]
    return convolve.spectral_coefficient(parts, q, system.n % q)


def check_routes(name: str, keys: tuple, definition, exact) -> None:
    """Raise NumericIntegrityError at the first key whose values differ by > 1e-9 max(1, |.|)."""
    d, e = np.array(definition, np.float64, ndmin=1), np.array(exact, np.float64, ndmin=1)
    off = np.abs(d - e) > 1e-9 * np.maximum(1.0, np.maximum(np.abs(d), np.abs(e)))
    if off.any():
        i = int(off.argmax())
        raise NumericIntegrityError(f"{name}({keys[i]}) identity violated: {float(d[i])!r}"
                                    f" by definition vs {float(e[i])!r} from the counts")


def euler_factor(primes: tuple[int, ...], a_p, exact) -> np.ndarray:
    """s(p) = 1 + A(p) at each prime of primes, from the definition route's A(p),
    held to the exact s(p) by check_routes."""
    s = 1.0 + np.array(a_p, ndmin=1)
    check_routes("s", primes, s, exact)
    return s


@dataclass(frozen=True)
class LocalData:
    """A(q) from the exact counts, exact N(q), and at a prime q the definition route's s(q)."""

    q: int
    series_term: float
    unit_solutions: int
    euler_factor: float | None


def local_data(q: int, system: CoefficientSystem) -> LocalData:
    _check_q(q, EXACT_COUNT_CAP)
    definition, a_q = series_term(q, system), exact_term(q, system)
    check_routes("A", (q,), definition, a_q)
    s_p = 1.0 + definition if arith.is_prime(q) else None
    return LocalData(q, a_q, unit_solution_count(q, system), s_p)
