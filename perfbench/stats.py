"""Order statistics shared by the parent and the trace metrics."""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """q-th percentile by linear interpolation between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
