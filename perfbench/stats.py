"""Order statistics used for every timing the benchmark reports."""
from __future__ import annotations

import math


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% at or below it.

    With n samples the result is the ceil(p/100 * n)-th smallest, so at p=90
    and n >= 100 at least ten samples lie strictly beyond its rank.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("p must lie in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(p / 100 * len(ordered))
    return ordered[rank - 1]


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
