"""Signed-offset convolution of weighted integer supports.

Each factor is a dense weight array over a contiguous range of signed
integer indices.  Products of several factors are built stage by stage;
when a single target coefficient is wanted, every intermediate array is
cropped to the window of partial sums that can still reach the target,
which keeps nine-fold products tractable at window sizes around 1e6.

Stages use direct slice adds when one side is sparse and an FFT product
otherwise.  Inputs with nonnegative weights keep exact zero/nonzero
semantics along the direct path (no cancellation can occur).

convolve_full takes one of two paths, chosen before anything is
allocated from the factor lengths and nonzero counts alone.  When every
stage of the staged chain would take the direct path (nonzero entries of
the shorter side times the length of the longer one at most
_DIRECT_COST_LIMIT; the nonzero count of a partial product is bounded by
the product of its factors' counts), the chain runs as convolve_read's
stages do, without cropping.  Otherwise the product is taken in one
spectral step: one rfft per distinct factor (equal values, whatever the
offset) at the least 5-smooth length covering the product span, each
spectrum multiplied into one accumulator once per slot that shares it,
and a single irfft.  Sparse prime-cube supports up to N = 3e5 stay
staged; dense m^(-2/3) supports and the sparse supports at N = 1e6 go
spectral.
"""

from __future__ import annotations

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


def from_sparse(indices: Sequence[int], weights: Sequence[float], cap: int = CELL_CAP) -> IndexedWeights:
    """Dense array from sparse (index, weight) data; duplicate indices add."""
    idx = np.asarray(indices, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    if idx.size == 0:
        return IndexedWeights(0, np.zeros(0, dtype=np.float64))
    if idx.size != w.size:
        raise DomainError("indices and weights must have equal length")
    lo = int(idx.min())
    span = int(idx.max()) - lo + 1
    if span > cap:
        raise ResourceLimitError(f"support span {span} exceeds cap {cap}")
    vals = np.zeros(span, dtype=np.float64)
    np.add.at(vals, idx - lo, w)
    return IndexedWeights(lo, vals)


def _convolve_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plain linear convolution, method chosen by cost."""
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return np.zeros(0, dtype=np.float64)
    short, long_ = (a, b) if la <= lb else (b, a)
    nnz = np.flatnonzero(short)
    if nnz.size * len(long_) <= _DIRECT_COST_LIMIT:
        out = np.zeros(la + lb - 1, dtype=np.float64)
        for i in nnz:
            out[i : i + len(long_)] += short[i] * long_
        return out
    size = la + lb - 1
    nfft = 1 << (size - 1).bit_length()
    fa = np.fft.rfft(a, nfft)
    fb = np.fft.rfft(b, nfft)
    return np.fft.irfft(fa * fb, nfft)[:size]


def convolve_pair(a: IndexedWeights, b: IndexedWeights) -> IndexedWeights:
    return IndexedWeights(a.offset + b.offset, _convolve_values(a.values, b.values))


def _crop(part: IndexedWeights, lo: int, hi: int) -> IndexedWeights:
    """Restrict to [lo, hi]; empty result allowed."""
    lo = max(lo, part.lo)
    hi = min(hi, part.hi)
    if lo > hi:
        return IndexedWeights(0, np.zeros(0, dtype=np.float64))
    return IndexedWeights(lo, part.values[lo - part.offset : hi - part.offset + 1])


def convolve_read(parts: Sequence[IndexedWeights], target: int, cap: int = CELL_CAP) -> float:
    """Coefficient of `target` in the product of all parts.

    Partial products are cropped to [target - future_max, target - future_min]
    after each stage, where future_min/max bound the sum of the remaining
    factors' indices.
    """
    parts = list(parts)
    if not parts:
        raise DomainError("need at least one factor")
    if any(len(p.values) == 0 for p in parts):
        return 0.0
    suffix_lo = [0] * (len(parts) + 1)
    suffix_hi = [0] * (len(parts) + 1)
    for i in range(len(parts) - 1, -1, -1):
        suffix_lo[i] = suffix_lo[i + 1] + parts[i].lo
        suffix_hi[i] = suffix_hi[i + 1] + parts[i].hi
    if not suffix_lo[0] <= target <= suffix_hi[0]:
        return 0.0
    cells = 0
    acc = _crop(parts[0], target - suffix_hi[1], target - suffix_lo[1])
    for i in range(1, len(parts)):
        if len(acc.values) == 0:
            return 0.0
        cells += len(acc.values) + len(parts[i].values)
        if cells > cap:
            raise ResourceLimitError(f"convolution exceeds the {cap}-cell cap")
        nxt = convolve_pair(acc, parts[i])
        acc = _crop(nxt, target - suffix_hi[i + 1], target - suffix_lo[i + 1])
    return acc.coefficient(target)


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


def _stages_direct(parts: Sequence[IndexedWeights]) -> bool:
    """True when every stage of the chain over parts takes the direct path.

    Follows _convolve_values' choice stage by stage, with the nonzero
    count of each partial product bounded by the product of its factors'
    counts (a sumset is no larger than the product of its summands).
    """
    acc_len = len(parts[0].values)
    acc_nnz = int(np.count_nonzero(parts[0].values))
    for p in parts[1:]:
        n = len(p.values)
        nnz = int(np.count_nonzero(p.values))
        short_nnz, long_len = (acc_nnz, n) if acc_len <= n else (nnz, acc_len)
        if short_nnz * long_len > _DIRECT_COST_LIMIT:
            return False
        acc_len += n - 1
        acc_nnz = min(acc_len, acc_nnz * nnz)
    return True


def _spectral_product(parts: Sequence[IndexedWeights], span: int, cap: int) -> IndexedWeights:
    """Product of all parts from one rfft per distinct factor and one irfft."""
    nfft = _fft_length(span)
    if nfft > cap:
        raise ResourceLimitError(f"FFT length {nfft} exceeds cap {cap}")
    groups: list[list] = []  # [values, number of slots sharing them]
    for p in parts:
        for group in groups:
            if np.array_equal(group[0], p.values):
                group[1] += 1
                break
        else:
            groups.append([p.values, 1])
    acc = np.ones(nfft // 2 + 1, dtype=np.complex128)
    for rep, k in groups:
        spectrum = np.fft.rfft(rep, nfft)
        for _ in range(k):
            acc *= spectrum
        del spectrum  # before the next rfft: at most two spectra alive
    offset = sum(p.offset for p in parts)
    return IndexedWeights(offset, np.fft.irfft(acc, nfft)[:span])


def convolve_full(parts: Sequence[IndexedWeights], cap: int = CELL_CAP) -> IndexedWeights:
    """Full product of all parts (no target window).

    Staged when every stage is direct, else one spectral product; see the
    module docstring.
    """
    parts = list(parts)
    if not parts:
        raise DomainError("need at least one factor")
    if any(len(p.values) == 0 for p in parts):
        return IndexedWeights(0, np.zeros(0, dtype=np.float64))
    total = sum(p.hi - p.lo for p in parts) + 1
    if total > cap:
        raise ResourceLimitError(f"product span {total} exceeds cap {cap}")
    if not _stages_direct(parts):
        return _spectral_product(parts, total, cap)
    acc = parts[0]
    for p in parts[1:]:
        acc = convolve_pair(acc, p)
    return acc
