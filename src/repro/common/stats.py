"""Shared statistics helpers.

One home for the exact linear-interpolated percentile convention, the
reference that the streaming histograms' estimates are tested against,
so the math cannot drift between copies.  The convention matches ``numpy.percentile``'s
default (``linear`` interpolation): rank ``(p / 100) * (n - 1)`` over a
sorted sample list, interpolating between the two nearest order
statistics.
"""

from __future__ import annotations

import math
from typing import Sequence


def percentile_sorted(ordered: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile of a pre-sorted sample sequence.

    ``p`` is in [0, 100]; an empty sequence yields 0.0.  ``p=0`` returns
    the minimum, ``p=100`` the maximum, and a single sample is returned
    for every ``p``.
    """
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    if not ordered:
        return 0.0
    rank = (p / 100.0) * (len(ordered) - 1)
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return float(ordered[lower])
    frac = rank - lower
    return ordered[lower] * (1 - frac) + ordered[upper] * frac


def percentile_exact(samples: Sequence[float], p: float) -> float:
    """Percentile of an *unsorted* sample sequence (sorts a copy).

    Convenience wrapper over :func:`percentile_sorted` for callers that
    hold raw sample lists; sort once yourself if you need several
    percentiles of the same data.
    """
    return percentile_sorted(sorted(samples), p)


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index over per-tenant allocations.

    ``(sum x)^2 / (n * sum x^2)`` — 1.0 when every tenant gets an equal
    share, ``1/n`` when one tenant gets everything.  An empty or
    all-zero sequence yields 0.0.
    """
    if not values:
        return 0.0
    total = float(sum(values))
    squares = float(sum(v * v for v in values))
    if squares == 0.0:
        return 0.0
    return (total * total) / (len(values) * squares)
