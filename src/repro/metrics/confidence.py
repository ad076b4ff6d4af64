"""Confidence intervals (paper section 5.4).

"When in the following sections we affirm that a performance difference
is relevant, this was confirmed by checking that confidence intervals
with 95% certainty do not intersect."  The sample counts involved
(tens of thousands of deliveries) make the normal approximation exact
for all practical purposes, so the interval is the classic
``mean +- z * s / sqrt(n)``.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

#: Two-sided z-scores for common confidence levels.
_Z_SCORES = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


def mean_confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float]:
    """Return ``(mean, half_width)`` of the confidence interval.

    With fewer than two samples the half-width is infinite -- a single
    observation supports no interval claim.
    """
    z = _Z_SCORES.get(confidence)
    if z is None:
        raise ValueError(
            f"confidence must be one of {sorted(_Z_SCORES)}, got {confidence}"
        )
    n = len(values)
    if n == 0:
        raise ValueError("no values")
    mean = sum(values) / n
    if n < 2:
        # R=1 guard: one observation supports no interval claim, so the
        # half-width is infinite (and any overlap test passes).
        return mean, float("inf")
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    half_width = z * math.sqrt(variance / n)
    return mean, half_width


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile of an already sorted sequence
    (NaN when it is empty)."""
    if not sorted_values:
        return float("nan")
    position = fraction * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    weight = position - low
    return sorted_values[low] * (1 - weight) + sorted_values[high] * weight


def intervals_overlap(
    a: Tuple[float, float], b: Tuple[float, float]
) -> bool:
    """True when two ``(mean, half_width)`` intervals intersect.

    Non-overlap is the paper's criterion for calling a difference
    relevant, so degenerate intervals are treated conservatively: any
    NaN endpoint (e.g. a NaN mean from a run that delivered nothing)
    reads as overlapping -- no difference claim can be supported.
    Infinite half-widths (single-sample intervals) overlap everything
    by ordinary arithmetic.
    """
    if any(math.isnan(v) for v in (*a, *b)):
        return True
    a_low, a_high = a[0] - a[1], a[0] + a[1]
    b_low, b_high = b[0] - b[1], b[0] + b[1]
    return a_low <= b_high and b_low <= a_high
