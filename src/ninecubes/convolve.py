"""Signed-offset convolution of weighted integer supports.

Each factor is a dense weight array over a contiguous range of signed
integer indices.  Two products are built here:

- the staged chain multiplies factor by factor, adding each cell's
  products in the order of a slice add per nonzero of the shorter side
  (see convolve_full).  It only adds products, so nonnegative weights
  keep exact zeros.  Its merge step _sumset is also expsum's r(n) join.
- the spectral product (_product_spectrum) takes one rfft per factor up
  to offset and reversal (a reversed factor takes the conjugate), multiplies
  it into one accumulator once per slot that shares it, and inverts once.

convolve_full returns the whole product: by the chain while each stage's
nonzero counts, as observed, multiply to at most _DIRECT_COST_LIMIT,
then by one spectral product of the accumulator and the factors left, at
the least 5-smooth length covering the span.  Every single coefficient
is one spectral_coefficient read.  convolve_read (J(n), its tuple count and
the Fourier route of r(n)) crops the factors to the target's reach,
reads at the least 5-smooth length that keeps aliases off the target and
returns the read with its rounding_bound.  The float N(p) is a cyclic
read of its own length through spectral_coefficient.
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


def convolve_pair(a: IndexedWeights, b: IndexedWeights) -> IndexedWeights:
    """Product of two factors: each nonzero of the shorter side adds its
    multiple of the longer side by one slice add."""
    short, long_ = sorted((a.values, b.values), key=len)
    out = np.zeros(len(short) + len(long_) - 1 if len(short) else 0, dtype=np.float64)
    for i in np.flatnonzero(short):
        out[i : i + len(long_)] += short[i] * long_
    return IndexedWeights(a.offset + b.offset, out)


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


def _fft_length(n: int) -> int:
    """Least 2^a 3^b 5^c >= n."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _product_spectrum(parts: Sequence[IndexedWeights], nfft: int) -> tuple[np.ndarray, int]:
    """Length-nfft rfft of the cyclic product of all parts' values, shifted back
    by the returned count.  One rfft per factor up to reversal: the reverse
    of a real factor of length l has the conjugate spectrum, shifted by l - 1."""
    if nfft > CELL_CAP:
        raise ResourceLimitError(f"FFT length {nfft} exceeds cap {CELL_CAP}")
    groups: list[list] = []  # [values, slots sharing them, slots sharing them reversed]
    for p in parts:
        for group in groups:
            same = np.array_equal(group[0], p.values)
            if same or np.array_equal(group[0][::-1], p.values):
                group[1 if same else 2] += 1
                break
        else:
            groups.append([p.values, 1, 0])
    acc, shift = np.ones(nfft // 2 + 1, dtype=np.complex128), 0
    for rep, k, k_rev in groups:
        spectrum = np.fft.rfft(rep, nfft)
        for _ in range(k):
            acc *= spectrum
        np.conjugate(spectrum, out=spectrum)
        for _ in range(k_rev):
            acc *= spectrum
        shift += k_rev * (len(rep) - 1)
        del spectrum  # before the next rfft: at most two spectra alive
    return acc, shift


def spectral_coefficient(parts: Sequence[IndexedWeights], nfft: int, index: int) -> float:
    """Coefficient `index` of the length-nfft cyclic product of the values (offsets ignored)."""
    spectrum, shift = _product_spectrum(parts, nfft)
    return float(np.fft.irfft(spectrum, nfft)[(index - shift) % nfft])


def rounding_bound(parts: Sequence[IndexedWeights], nfft: int) -> float:
    """Bound on the rounding error of spectral_coefficient: 64 eps log2(nfft)
    times the product of the factors' l1 norms."""
    mass = math.prod(float(np.abs(p.values).sum()) for p in parts)
    return 64 * np.finfo(np.float64).eps * math.log2(nfft) * mass


def _spectral_product(parts: Sequence[IndexedWeights], span: int) -> IndexedWeights:
    """Product of all parts from one rfft per distinct factor and one irfft."""
    nfft = _fft_length(span)
    spectrum, shift = _product_spectrum(parts, nfft)
    values = np.roll(np.fft.irfft(spectrum, nfft), shift)[:span]
    return IndexedWeights(sum(p.offset for p in parts), values)


def convolve_read(parts: Sequence[IndexedWeights], target: int) -> tuple[float, float]:
    """Coefficient of `target` in the product of all parts, and its rounding bound.

    Each factor is cropped to the indices from which the target is still
    reachable, and the coefficient is read from one spectral product at
    the least 5-smooth length L exceeding both the target's offset t in
    the cropped product and span - t, so no alias lands on t; its bound
    is rounding_bound.
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
    nfft = _fft_length(max(t + 1, span - t + 1, *(len(p.values) for p in cropped)))
    return spectral_coefficient(cropped, nfft, t), rounding_bound(cropped, nfft)


def convolve_full(parts: Sequence[IndexedWeights]) -> IndexedWeights:
    """Full product of all parts (no target window).

    The accumulator is held as its sorted nonzero cells and weights while
    a stage forms no more index pairs than its span: such a stage merges
    them by _sumset, or, as the last stage, adds them into the table.
    The first stage with more pairs makes it dense; it and every later
    stage run convolve_pair.  From the first stage whose nonzero counts
    multiply past _DIRECT_COST_LIMIT, one spectral product takes the
    accumulator and the remaining factors.  Spans whose padded FFT
    length exceeds CELL_CAP are refused before any stage runs.
    """
    parts = list(parts)
    if not parts:
        raise DomainError("need at least one factor")
    if any(len(p.values) == 0 for p in parts):
        return IndexedWeights(0, np.zeros(0, dtype=np.float64))
    total = sum(p.hi - p.lo for p in parts) + 1
    nfft = _fft_length(total)  # checked up front: a spectral remainder may follow direct stages
    if nfft > CELL_CAP:
        raise ResourceLimitError(f"FFT length {nfft} of product span {total} exceeds cap {CELL_CAP}")
    acc, offset, span = parts[0], parts[0].offset, len(parts[0].values)
    cells = np.flatnonzero(acc.values != 0)  # a mask scans faster than nonzero on floats
    sparse = (cells, acc.values[cells])  # the accumulator's nonzeros until a stage makes it dense
    for k, p in enumerate(parts[1:], 1):
        cells = np.flatnonzero(p.values != 0)
        pairs = (np.count_nonzero(acc.values) if sparse is None else len(sparse[0])) * len(cells)
        if sparse is not None and pairs <= min(span + len(p.values) - 1, _DIRECT_COST_LIMIT):
            factor = (cells, p.values[cells])
            short, long_ = (sparse, factor) if span <= len(p.values) else (factor, sparse)
            offset, span = offset + p.offset, span + len(p.values) - 1
            if k < len(parts) - 1:
                acc, sparse = None, _sumset(short, long_)
                continue
            acc = IndexedWeights(offset, np.zeros(span))
            for i, w in zip(short[0].tolist(), short[1].tolist()):
                acc.values[i:][long_[0]] += w * long_[1]  # long_'s cells are distinct: each adds once
            return acc
        if acc is None:
            acc = IndexedWeights(offset, np.zeros(span))
            acc.values[sparse[0]] = sparse[1]
        if pairs > _DIRECT_COST_LIMIT:
            return _spectral_product([acc, *parts[k:]], total)
        acc, sparse = convolve_pair(acc, p), None
    return acc
