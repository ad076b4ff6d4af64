"""Planar geometry helpers for pseudo-geographical topologies.

Inet-3.0 places nodes on a plane and ModelNet derives link latency from
euclidean ("pseudo-geographical") distance; the paper's Distance monitor
(section 4.2) measures exactly this quantity.  We keep the same
convention: all generated topologies carry planar coordinates, and
Radius by distance reads them.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class Point(NamedTuple):
    """A position on the topology plane (arbitrary units)."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def euclidean(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(a.x - b.x, a.y - b.y)


def midpoint(a: Point, b: Point) -> Point:
    """The midpoint of segment ``ab``."""
    return Point((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into ``[low, high]``."""
    if value < low:
        return low
    if value > high:
        return high
    return value
