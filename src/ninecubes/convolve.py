"""Signed-offset convolution of weighted integer supports.

Each factor is a dense weight array over a contiguous range of signed
integer indices.  Two products are built here:

- the sparse chain merges the accumulator's nonzero cells with each
  factor's (_sumset, also expsum's r(n) join), adding each cell's
  products in the order of a slice add per nonzero of the shorter side.
  It only adds products, so nonnegative weights keep exact zeros.
- the spectral product (_product_spectrum) takes one rfft per factor up
  to offset and reversal (a reversed factor takes the conjugate) and
  multiplies it into one accumulator once per slot that shares it.  A
  factor whose nonzeros lie r + d Z is transformed at its compact length:
  with d | L, the length-L DFT of values[r::d] placed at stride d is the
  length-L/d DFT of the compact array repeated d times and turned by r.

Transform lengths are the least 2^a 3^b 5^c multiple of the factors'
strides' 5-smooth parts that covers what is needed.  convolve_full
returns the whole product by one of two routes: the sparse chain while
each stage's observed nonzero counts multiply to at most its span and
_DIRECT_COST_LIMIT, else one spectral product of the accumulator and the
factors left, inverted by one irfft.  Every single coefficient is one
spectral_coefficient read, summed straight from the half spectrum
(_coefficient) with no inverse transform.  convolve_read (J(n), its tuple count and the Fourier route
of r(n)) crops the factors to the target's reach, reads at a length
that keeps aliases off the target and returns the read with its
rounding_bound.  The float N(p) is a cyclic read of its own length
through spectral_coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, ResourceLimitError

CELL_CAP = 2 * 10**8
_DIRECT_COST_LIMIT = 3 * 10**7


@dataclass(frozen=True, eq=False)
class IndexedWeights:
    """Dense weights over the index range [offset, offset + len(values))."""

    offset: int
    values: np.ndarray

    @property
    def lo(self) -> int:
        return self.offset

    @property
    def hi(self) -> int:
        return self.offset + len(self.values) - 1

    def coefficient(self, index: int) -> float:
        if self.lo <= index <= self.hi:
            return float(self.values[index - self.offset])
        return 0.0


def from_sparse(indices: Sequence[int], weights: Sequence[float]) -> IndexedWeights:
    """Dense array from sparse (index, weight) data; duplicate indices add.

    A span above CELL_CAP is refused before it is allocated."""
    idx = np.asarray(indices, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    if idx.size != w.size:
        raise DomainError("indices and weights must have equal length")
    if idx.size == 0:
        return IndexedWeights(0, np.zeros(0, dtype=np.float64))
    lo = int(idx.min())
    span = int(idx.max()) - lo + 1
    if span > CELL_CAP:
        raise ResourceLimitError(f"support span {span} exceeds cap {CELL_CAP}")
    vals = np.zeros(span, dtype=np.float64)
    np.add.at(vals, idx - lo, w)
    return IndexedWeights(lo, vals)


def _run_starts(x: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values in sorted x."""
    keep = np.ones(len(x), dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return keep


def _sumset(first: tuple[np.ndarray, np.ndarray], second: tuple[np.ndarray, np.ndarray]):
    """Sorted distinct sums of first's and second's indices, each with the
    weight products of its pairs added in ascending position in first, as
    a slice add per entry of first adds them: bincount adds left to right,
    where reduceat would add runs of 8 or more pairwise.  The pairs are
    held to CELL_CAP before they are allocated."""
    pairs = len(first[0]) * len(second[0])
    if pairs > CELL_CAP:
        raise ResourceLimitError(f"sumset of {pairs} index pairs exceeds cap {CELL_CAP}")
    sums = (first[0][:, None] + second[0]).ravel()
    order = np.argsort(sums, kind="stable")
    sums = sums[order]
    starts = _run_starts(sums)
    products = (first[1][:, None] * second[1]).ravel()[order]
    return sums[starts], np.bincount(np.cumsum(starts) - 1, products)


def _fft_length(n: int, modulus: int = 1) -> int:
    """Least 2^a 3^b 5^c multiple of the 5-smooth modulus that is >= n."""
    n = -(-n // modulus)
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return modulus * best


def _smooth_part(d: int) -> int:
    """Greatest 2^a 3^b 5^c dividing d; 1 for d = 0."""
    part = 1
    for f in (2, 3, 5):
        while d and d % (part * f) == 0:
            part *= f
    return part


def _stride(cells: np.ndarray) -> tuple[int, int]:
    """First of the sorted nonzero positions, and the gcd of their offsets
    from it: 0 when there is at most one.  Adjacent first nonzeros end the
    scan at stride 1."""
    if len(cells) > 1 and cells[1] == cells[0] + 1:
        return int(cells[0]), 1
    first = int(cells[0]) if len(cells) else 0
    return first, int(np.gcd.reduce(cells - first))


def _factor_groups(parts: Sequence[IndexedWeights]) -> list[list]:
    """The distinct factors up to reversal, each as [values, slots sharing
    them, slots sharing them reversed, first nonzero, stride]; the stride
    is found once per group, not once per slot."""
    groups: list[list] = []
    for p in parts:
        for group in groups:
            same = np.array_equal(group[0], p.values)
            if same or np.array_equal(group[0][::-1], p.values):
                group[1 if same else 2] += 1
                break
        else:
            groups.append([p.values, 1, 0])
    for group in groups:
        group += _stride(np.flatnonzero(group[0] != 0))  # a mask scans faster than nonzero on floats
    return groups


def _stride_modulus(strides) -> int:
    """Least common multiple of the strides' 5-smooth parts: the transform
    length is a multiple of it, so each strided factor is transformed at
    its compact length."""
    return math.lcm(*(_smooth_part(d) for d in strides))


def _strided_spectrum(
    values: np.ndarray, first: int, stride: int, nfft: int
) -> tuple[int, np.ndarray, np.ndarray]:
    """The length-nfft DFT of values shifted back by first, at bins
    0..nfft/2, as one period F of it: with d = gcd(stride, nfft), F is the
    length-nfft/d DFT of the compact array values[first::d].  Returns the
    period, F's first nfft/(2d) + 1 bins (an rfft) and the conjugate
    mirror of them that continues F up to the bins needed (none at d = 1)."""
    d = math.gcd(stride, nfft)
    period = nfft // d
    half = np.fft.rfft(values[first::d], period)
    reach = min(period, nfft // 2 + 1)
    return period, half, np.conjugate(half[period - len(half) : period - reach : -1])


def _multiply_periodic(acc: np.ndarray, period: int, half: np.ndarray, upper: np.ndarray) -> None:
    """acc[j] *= F[j % period] for F = half followed by upper, through a
    reshaped view of acc: F itself is never formed."""
    rows = len(acc) // period
    whole = [acc[: rows * period].reshape(rows, period)] if rows else []
    for block in whole + [acc[rows * period :]]:
        width = block.shape[-1]
        block[..., : len(half)] *= half[:width]
        block[..., len(half) :] *= upper[: max(width - len(half), 0)]


def _product_spectrum(groups: list[list], nfft: int) -> tuple[np.ndarray, int]:
    """Bins 0..nfft/2 of the DFT of the cyclic product of every slot's
    values, shifted back by the returned count.  One rfft per group, of
    its compact array (see _strided_spectrum): a slot sharing the values
    adds their first nonzero r to the shift, one sharing them reversed
    takes the conjugate and adds len - 1 - r."""
    if nfft > CELL_CAP:
        raise ResourceLimitError(f"FFT length {nfft} exceeds cap {CELL_CAP}")
    acc, shift = np.ones(nfft // 2 + 1, dtype=np.complex128), 0
    for values, k, k_rev, first, stride in groups:
        period, half, upper = _strided_spectrum(values, first, stride, nfft)
        for _ in range(k):
            _multiply_periodic(acc, period, half, upper)
        np.conjugate(half, out=half)
        np.conjugate(upper, out=upper)
        for _ in range(k_rev):
            _multiply_periodic(acc, period, half, upper)
        shift += k * first + k_rev * (len(values) - 1 - first)
        del half, upper  # before the next rfft: at most one period alive next to acc
    return acc, shift


def _read_block(nfft: int) -> int:
    """Least b with b^3 >= nfft/2 + 1, the twiddle block of _coefficient."""
    b = 1
    while b**3 < nfft // 2 + 1:
        b += 1
    return b


def _coefficient(spectrum: np.ndarray, nfft: int, t: int) -> float:
    """Coefficient t of the real length-nfft sequence whose rfft is
    spectrum, summed from the half spectrum without an inverse transform.

    The sum of spectrum[k] e(t k / nfft) over the bins runs in three
    levels of b-wide blocks, b = _read_block(nfft): each level is a
    matrix-vector product of the previous level's sums with b twiddles
    e(t s i / nfft), s = b^level, of phase reduced mod nfft in integers.
    """
    b = _read_block(nfft)
    level, step = spectrum, 1
    for _ in range(3):
        phase = (t * step % nfft) * np.arange(b, dtype=np.int64) % nfft
        phase[phase > nfft // 2] -= nfft
        twiddle = np.exp(2j * np.pi / nfft * phase)
        whole = len(level) // b * b
        sums = level[:whole].reshape(-1, b) @ twiddle
        if whole < len(level):
            sums = np.append(sums, level[whole:] @ twiddle[: len(level) - whole])
        level, step = sums, step * b
    value = 2 * level[0].real - spectrum[0].real  # each bin but 0 and nfft/2 stands for a pair
    if nfft % 2 == 0:
        value -= (-1) ** t * spectrum[-1].real
    return float(value / nfft)


def spectral_coefficient(parts: Sequence[IndexedWeights], nfft: int, index: int) -> float:
    """Coefficient `index` of the length-nfft cyclic product of the values (offsets ignored)."""
    spectrum, shift = _product_spectrum(_factor_groups(parts), nfft)
    return _coefficient(spectrum, nfft, (index - shift) % nfft)


def rounding_bound(parts: Sequence[IndexedWeights], nfft: int) -> float:
    """Bound on the rounding error of spectral_coefficient: eps times the
    product of the factors' l1 norms, times 64 log2(nfft) for the
    transforms and products plus (3b + 24)(nfft//2 + 1) 2/nfft for the
    read.  _coefficient sums nfft//2 + 1 bins, none above that product,
    in three levels of b-term dot products, each with its twiddles within
    6 eps and its own rounding within (b + 2) eps of its terms' moduli."""
    mass = math.prod(float(np.abs(p.values).sum()) for p in parts)
    read = (3 * _read_block(nfft) + 24) * 2 * (nfft // 2 + 1) / nfft
    return (64 * math.log2(nfft) + read) * np.finfo(np.float64).eps * mass


def _spectral_product(parts: Sequence[IndexedWeights], span: int, nfft: int) -> IndexedWeights:
    """Product of all parts, of the given span, from one rfft per distinct
    factor and one irfft at length nfft >= span.  The spectrum is freed
    before the span is copied out of the cyclic product, so at most two
    length-nfft arrays are alive and the result holds only the span."""
    spectrum, shift = _product_spectrum(_factor_groups(parts), nfft)
    cyclic = np.fft.irfft(spectrum, nfft)
    del spectrum
    # coefficient i of the product is cyclic[(i - shift) % nfft], and each
    # slot shifts by less than its length, so shift < span <= nfft
    values = np.empty(span)
    values[:shift] = cyclic[nfft - shift :]
    values[shift:] = cyclic[: span - shift]
    return IndexedWeights(sum(p.offset for p in parts), values)


def convolve_read(parts: Sequence[IndexedWeights], target: int) -> tuple[float, float]:
    """Coefficient of `target` in the product of all parts, and its rounding bound.

    Each factor is cropped to the indices from which the target is still
    reachable, and the coefficient is read from one spectral product at
    the least 5-smooth multiple L of the cropped factors' strides'
    5-smooth parts that exceeds both the target's offset t in the cropped
    product and span - t, so no alias lands on t; its bound is
    rounding_bound.
    """
    parts = list(parts)
    if not parts:
        raise DomainError("need at least one factor")
    lo_total = sum(p.lo for p in parts)
    hi_total = sum(p.hi for p in parts)
    if any(len(p.values) == 0 for p in parts) or not lo_total <= target <= hi_total:
        return 0.0, 0.0
    cropped = []
    for p in parts:
        lo = max(p.lo, target - (hi_total - p.hi))
        hi = min(p.hi, target - (lo_total - p.lo))
        cropped.append(IndexedWeights(lo, p.values[lo - p.offset : hi - p.offset + 1]))
    span = sum(len(p.values) - 1 for p in cropped) + 1
    t = target - sum(p.lo for p in cropped)
    groups = _factor_groups(cropped)
    need = max(t + 1, span - t + 1, *(len(p.values) for p in cropped))
    nfft = _fft_length(need, _stride_modulus(group[4] for group in groups))
    spectrum, shift = _product_spectrum(groups, nfft)
    return _coefficient(spectrum, nfft, (t - shift) % nfft), rounding_bound(cropped, nfft)


def convolve_full(parts: Sequence[IndexedWeights]) -> IndexedWeights:
    """Full product of all parts (no target window).

    The accumulator is held as its sorted nonzero cells and weights while
    a stage forms no more index pairs than its span and _DIRECT_COST_LIMIT:
    such a stage merges them by _sumset, or, as the last stage, adds them
    into the table.  From the first stage with more pairs (the first of
    all when the first part is already too dense), one spectral product
    takes the accumulator and the remaining factors, at the length the
    factors' strides give the whole span.  A span whose transform length
    exceeds CELL_CAP is refused before any stage runs.
    """
    parts = list(parts)
    if not parts:
        raise DomainError("need at least one factor")
    if any(len(p.values) == 0 for p in parts):
        return IndexedWeights(0, np.zeros(0, dtype=np.float64))
    total = sum(p.hi - p.lo for p in parts) + 1
    # each array's nonzeros, scanned once however many slots pass it; a
    # mask scans faster than nonzero on floats
    arrays = {id(p.values): p.values for p in parts}
    scanned = {key: np.flatnonzero(values != 0) for key, values in arrays.items()}
    counts = [len(scanned[id(p.values)]) for p in parts]
    # the spectral remainder's length, checked before any stage runs
    nfft = _fft_length(total, _stride_modulus(_stride(c)[1] for c in scanned.values()))
    if nfft > CELL_CAP:
        raise ResourceLimitError(f"FFT length {nfft} of product span {total} exceeds cap {CELL_CAP}")
    # A direct stage forms at most `total` pairs and the accumulator keeps
    # at least the first part's nonzeros, so a part with more than
    # total / min(counts) nonzeros never takes one: its positions are freed
    # here, before any stage allocates, and only its count is kept.
    least = min(counts)
    cells = [scanned[id(p.values)] if c * least <= total else None for p, c in zip(parts, counts)]
    del scanned
    acc, offset, span = parts[0], parts[0].offset, len(parts[0].values)
    # the accumulator's nonzeros while every stage is merged
    sparse = None if cells[0] is None else (cells[0], acc.values[cells[0]])
    for k, p in enumerate(parts[1:], 1):
        if sparse is None or len(sparse[0]) * counts[k] > min(span + len(p.values) - 1, _DIRECT_COST_LIMIT):
            if acc is None:
                acc = IndexedWeights(offset, np.zeros(span))
                acc.values[sparse[0]] = sparse[1]
            del cells  # the index arrays are not needed by the transforms
            return _spectral_product([acc, *parts[k:]], total, nfft)
        factor = (cells[k], p.values[cells[k]])
        short, long_ = (sparse, factor) if span <= len(p.values) else (factor, sparse)
        offset, span = offset + p.offset, span + len(p.values) - 1
        if k < len(parts) - 1:
            acc, sparse = None, _sumset(short, long_)
            continue
        acc = IndexedWeights(offset, np.zeros(span))
        for i, w in zip(short[0].tolist(), short[1].tolist()):
            acc.values[i:][long_[0]] += w * long_[1]  # long_'s cells are distinct: each adds once
    return acc
