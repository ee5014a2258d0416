"""Exponential sums over prime cubes and the weighted solution count r(n).

Slot j's support holds the primes p with M < |a_j| p^3 <= N, as listed by
arith.window_primes, once per distinct coefficient.  Its generating sum is
S_j(alpha) = sum over the support of log(p) e(a_j p^3 alpha), and the count

    r(n) = sum over solutions of n = a_1 p_1^3 + ... + a_9 p_9^3,
           each p_j in slot j's support, of log(p_1) ... log(p_9)

is computed two independent ways: by a join of the distinct index sums
of slots 1-4 and 5-9, which adds only positive products and takes no
transform (direct route), and as the coefficient of n in the product of
the slots' dense supports (Fourier route).  A length-L DFT of a support
samples S_j at L equispaced points, so that coefficient is the average
of prod_j S_j(t/L) e(-n t/L); convolve.convolve_read takes it at an L
that keeps aliases off n, after cropping each support to the indices
from which n is still reachable.  Odd cubes differ by even amounts, so
a support over odd primes has a stride of 2|a_j| or a multiple of it and
is transformed at L over that stride's 5-smooth part: at most L/2 at
a_j = +-1 and L/4 at a_j = +-2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import arcs, arith, convolve, singular
from .errors import DomainError, NumericIntegrityError, ResourceLimitError
from .localdata import CoefficientSystem

SCAN_POINTS_CAP = 10**6
_BLOCK_CELLS = 1 << 16  # points times primes of one block of support_sum


@dataclass(frozen=True, eq=False)
class WeightedCubeSupport:
    """Primes p with M < |a| p^3 <= N, their signed indices a p^3, and log p."""

    primes: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.primes)


def cube_support(aj: int, M: int, N: int) -> WeightedCubeSupport:
    """Support of a slot with coefficient aj over the window (M, N]: arith.window_primes.
    A window whose indices could pass int64 is refused before the sieve, unless
    the sieve's own cap refuses it first."""
    aj, (M, N) = arith.integral(aj), arith.check_window(M, N)
    top = arith.icbrt(N // max(abs(aj), 1))  # aj = 0 is for window_primes to refuse
    if top <= arith.SIEVE_CAP and abs(aj) * top**3 >= 2**63:
        raise ResourceLimitError(f"indices of slot {aj} up to {abs(aj) * top**3} exceed int64")
    p = np.array(arith.window_primes(abs(aj), M, N), dtype=np.int64)
    return WeightedCubeSupport(primes=p, indices=aj * p**3, weights=np.log(p.astype(np.float64)))


def support_sum(sup: WeightedCubeSupport, alpha: float | np.ndarray) -> complex | np.ndarray:
    """S_j(alpha) = sum over the support of log(p) e(a_j p^3 alpha).

    An array of alphas gives an array of sums, formed over blocks of at
    most _BLOCK_CELLS points times primes.  Each point's sum is one np.dot
    over its row, as for a single alpha: a matrix product would sum in
    another order and change the bits.
    """
    alphas = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    index = sup.indices.astype(np.float64)
    rows = max(1, _BLOCK_CELLS // max(1, len(index)))
    sums = np.empty(len(alphas), dtype=np.complex128)
    for lo in range(0, len(alphas), rows):
        phase = (index * alphas[lo:lo + rows, None]) % 1.0
        for k, row in enumerate(np.exp(2j * np.pi * phase), lo):
            sums[k] = np.dot(sup.weights, row)
    return sums if np.ndim(alpha) else complex(sums[0])


def _supports(system: CoefficientSystem, M: int, N: int) -> list[WeightedCubeSupport]:
    """The slots' supports, one per distinct coefficient: equal slots share one object."""
    sups = {aj: cube_support(aj, M, N) for aj in set(system.a)}
    return [sups[aj] for aj in system.a]


def _weighted_sums(sups: list[WeightedCubeSupport]) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct index sums over the supports, each with the summed
    weight products of the tuples attaining it: the sums so far merged
    with one slot at a time by convolve._sumset, which holds each slot's
    pairs to convolve.CELL_CAP before they are allocated."""
    acc = (np.zeros(1, dtype=np.int64), np.ones(1))
    for s in sups:
        acc = convolve._sumset(acc, (s.indices, s.weights))
    return acc


def weighted_count_direct(system: CoefficientSystem, M: int, N: int) -> float:
    """r(n) by a join of the distinct index sums of slots 1-4 and 5-9; see _weighted_sums."""
    sups = _supports(system, M, N)
    if any(len(s) == 0 for s in sups):
        return 0.0
    keys, key_weights = _weighted_sums(sups[:4])
    sums, weights = _weighted_sums(sups[4:])
    need = system.n - sums
    pos = np.searchsorted(keys, need)
    pos[pos == len(keys)] = 0
    hit = keys[pos] == need
    return float(np.dot(key_weights[pos[hit]], weights[hit]))


def weighted_count_fourier(system: CoefficientSystem, M: int, N: int) -> float:
    """r(n) as coefficient n of the product of the slots' dense supports.

    One support per distinct coefficient, read by convolve.convolve_read;
    a product span above convolve.CELL_CAP is refused before any support
    is built.  A solution adds at least F = prod_j log(least prime of
    slot j); when the read's rounding bound B is below F/2, a read below
    F - B is 0 within B and raises NumericIntegrityError beyond it.
    """
    sups = _supports(system, M, N)
    if any(len(s) == 0 for s in sups):
        return 0.0
    span = sum(int(s.indices.max()) - int(s.indices.min()) for s in sups) + 1
    if span > convolve.CELL_CAP:
        raise ResourceLimitError(f"product span {span} exceeds cap {convolve.CELL_CAP}")
    dense = {s: convolve.from_sparse(s.indices, s.weights) for s in set(sups)}
    r, bound = convolve.convolve_read([dense[s] for s in sups], system.n)
    least = math.prod(float(s.weights.min()) for s in sups)
    if 2 * bound >= least or r >= least - bound:
        return r
    if abs(r) > bound:
        raise NumericIntegrityError(
            f"Fourier read {r!r} is off 0 by more than {bound!r} and below {least!r}"
        )
    return 0.0


@dataclass(frozen=True)
class MinorScanReport:
    """Sup of |S_9| over grid points falling on minor arcs."""

    grid_step: float
    points_total: int
    points_minor: int
    sup_abs: float | None
    sup_alpha: float | None
    reference_power: float  # N_9^(19/60)
    ratio: float | None


def minor_arc_sup(
    system: CoefficientSystem, dissection: arcs.ArcDissection, M: int, N: int, grid_step: float
) -> MinorScanReport:
    """Scan |S_9| on an equispaced grid restricted to the minor arcs.

    An empty minor set (every grid point major) is reported distinctly
    with sup_abs = None.  A grid past SCAN_POINTS_CAP points is refused
    before the support is built, and one whose points times support
    primes pass convolve.CELL_CAP before the first point.
    """
    if grid_step <= 0 or grid_step >= 1:
        raise DomainError(f"grid step must lie in (0, 1), got {grid_step}")
    npts = int(math.ceil(1.0 / grid_step))
    if npts > SCAN_POINTS_CAP:
        raise ResourceLimitError(f"scan of {npts} points exceeds cap {SCAN_POINTS_CAP}")
    sup = cube_support(system.a[8], M, N)
    if npts * len(sup) > convolve.CELL_CAP:
        raise ResourceLimitError(
            f"scan of {npts} points over {len(sup)} primes exceeds cap {convolve.CELL_CAP}"
        )
    # after the support, whose sieve cap refuses an N past the float range
    start = 1.0 / dissection.Q
    ref = (N // abs(system.a[8])) ** (19.0 / 60.0)
    alphas = start + np.arange(npts) * grid_step
    alphas = alphas[alphas < 1.0 + start]
    alphas = alphas[~arcs.major_mask(alphas, dissection)]
    sums = support_sum(sup, alphas)
    mags = np.hypot(sums.real, sums.imag)  # abs(complex)'s libm hypot; np.abs can differ
    k = int(np.argmax(mags)) if len(mags) else None  # the first of equal maxima
    sup_abs = None if k is None else float(mags[k])
    return MinorScanReport(
        grid_step=grid_step,
        points_total=npts,
        points_minor=len(alphas),
        sup_abs=sup_abs,
        sup_alpha=None if k is None else float(alphas[k]),
        reference_power=ref,
        ratio=None if k is None else sup_abs / ref,
    )


@dataclass(frozen=True)
class RnReport:
    """r(n) by both routes next to the main-term prediction."""

    n: int
    M: int
    N: int
    coeffs: tuple[int, ...]
    r_direct: float
    r_fourier: float
    main_term: float
    series_cutoff: int
    ratio: float | None


def rn_report(
    system: CoefficientSystem, M: int, N: int, series_cutoff: int = singular.DEFINITION_ROUTE_MAX
) -> RnReport:
    mt = singular.main_term(system, M, N, series_cutoff)  # its caps refuse before either route runs
    direct = weighted_count_direct(system, M, N)
    fourier = weighted_count_fourier(system, M, N)
    return RnReport(
        n=system.n,
        M=M,
        N=N,
        coeffs=system.a,
        r_direct=direct,
        r_fourier=fourier,
        main_term=mt,
        series_cutoff=series_cutoff,
        ratio=None if mt == 0 else direct / mt,
    )
