"""Order statistics for benchmark samples: median, quartiles and an honest tail.

A tail percentile is only reported where the sample supports it: the
highest percentile with at least ten samples beyond it, together with the
sample count.  Quartiles follow :func:`statistics.quantiles` (its default
"exclusive" method), the same rule used to judge run-to-run spread.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.
TAIL_LADDER: Tuple[float, ...] = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation between order statistics."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    """The sample median."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for one sample)."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(q2)


def tail_percentile(
    values: Sequence[float], *, max_q: float = 99.9
) -> Optional[Tuple[float, float]]:
    """``(q, value)`` for the highest percentile ``q <= max_q`` with at
    least :data:`MIN_BEYOND` samples beyond it, or None if even the median
    lacks that support."""
    n = len(values)
    for q in TAIL_LADDER:
        # The tolerance absorbs round-off in 100 - q (e.g. 100 - 99.9).
        if q <= max_q and n * (100.0 - q) / 100.0 >= MIN_BEYOND - 1e-6:
            return q, percentile(values, q)
    return None
