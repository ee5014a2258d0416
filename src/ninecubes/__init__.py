"""Windowed counts of prime-cube representations a1 p1^3 + ... + a9 p9^3 = n.

The library computes the log-weighted representation count r(n) over a
prime window by a join of partial sums and by Fourier sampling, the local
densities (singular series and singular integral) that predict it, the
major/minor arc dissection behind that prediction, and an explicit
meet-in-the-middle solution search.
"""

from .errors import DomainError, NumericIntegrityError, ResourceLimitError
from .localdata import CoefficientSystem
from .search import SearchExhausted, SolutionRecord, find_solution, threshold_scan
from .singular import main_term, singular_integral, singular_series_partial
from .expsum import rn_report, weighted_count_direct, weighted_count_fourier
from .arcs import build_dissection, dirichlet_approx

__version__ = "0.1.0"

__all__ = [
    "CoefficientSystem",
    "DomainError",
    "NumericIntegrityError",
    "ResourceLimitError",
    "SearchExhausted",
    "SolutionRecord",
    "build_dissection",
    "dirichlet_approx",
    "find_solution",
    "main_term",
    "rn_report",
    "singular_integral",
    "singular_series_partial",
    "threshold_scan",
    "weighted_count_direct",
    "weighted_count_fourier",
    "__version__",
]
