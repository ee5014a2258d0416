"""Signed-offset convolution of weighted integer supports.

Each factor is a dense weight array over a contiguous range of signed
integer indices.  Two products are built here:

- the staged chain multiplies factor by factor: each nonzero of the
  shorter side adds its multiple of the longer side, over the longer
  side's nonzeros only when they are few.  It only adds products, so
  nonnegative weights keep exact zeros.
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
    if idx.size == 0:
        return IndexedWeights(0, np.zeros(0, dtype=np.float64))
    if idx.size != w.size:
        raise DomainError("indices and weights must have equal length")
    lo = int(idx.min())
    span = int(idx.max()) - lo + 1
    if span > CELL_CAP:
        raise ResourceLimitError(f"support span {span} exceeds cap {CELL_CAP}")
    vals = np.zeros(span, dtype=np.float64)
    np.add.at(vals, idx - lo, w)
    return IndexedWeights(lo, vals)


def convolve_pair(a: IndexedWeights, b: IndexedWeights) -> IndexedWeights:
    """Product of two factors: each nonzero of the shorter side adds its
    multiple of the longer side, by a slice add, or at the longer side's
    nonzeros only when fewer than one cell in ten holds one (measured
    break-even of the gather)."""
    short, long_ = sorted((a.values, b.values), key=len)
    out = np.zeros(len(short) + len(long_) - 1 if len(short) else 0, dtype=np.float64)
    cells = slice(0, len(long_))
    if 10 * np.count_nonzero(long_) < len(long_):
        cells = np.flatnonzero(long_)  # distinct, so the += below adds each once
        long_ = long_[cells]
    for i in np.flatnonzero(short):
        out[i:][cells] += short[i] * long_
    return IndexedWeights(a.offset + b.offset, out)


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

    Chained while the nonzero counts of accumulator and next factor
    multiply to at most _DIRECT_COST_LIMIT; from the first stage past it,
    one spectral product of the accumulator and the remaining factors
    (see the module docstring).  Spans whose padded FFT length exceeds
    CELL_CAP are refused before any stage runs.
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
    acc = parts[0]
    for k in range(1, len(parts)):
        if np.count_nonzero(acc.values) * np.count_nonzero(parts[k].values) > _DIRECT_COST_LIMIT:
            return _spectral_product([acc, *parts[k:]], total)
        acc = convolve_pair(acc, parts[k])
    return acc
