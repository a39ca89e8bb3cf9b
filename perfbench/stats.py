"""Order statistics for the benchmark's timings.

A timing is reported as its median plus a tail percentile that has at
least :data:`MIN_BEYOND` samples beyond it.  A percentile with fewer
samples above it is *unresolved*: one more slow sample would move it.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples a percentile needs above it before it counts as resolved.
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the ``q`` quantile of ``n`` samples."""
    # The tolerance keeps 0.9 * 100 (= 90.00000000000001) at rank 90.
    return n - math.ceil(q * n - 1e-9)


def resolved(n: int, q: float) -> bool:
    """Whether the ``q`` quantile of ``n`` samples has enough beyond it."""
    return samples_beyond(n, q) >= MIN_BEYOND


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default ``linear`` rule)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(samples: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return statistics.median(samples)
