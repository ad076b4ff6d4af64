"""The Radius strategy (section 4.1).

Eager push only to peers whose metric is below a radius ``rho``;
payload then spreads eagerly through overlapping neighbourhoods
("gossiping first with close nodes to minimize hop latency"), emerging
as a mesh of short links (Fig. 4b).  The request schedule differs from
Flat: the first ``IWANT`` waits ``T0`` -- the estimated latency to nodes
within the radius -- so that eager mesh paths get the chance to deliver
first, and requests go to the *nearest* known source.

``Metric(p)`` is ``row[p]``: the node's row of the model file's latency
(or distance) matrix, as the paper's evaluation reads it (section 4.3).
"""

from __future__ import annotations

from typing import Any, Sequence, Set

from repro.scheduler.interfaces import DEFAULT_RETRY_PERIOD_MS
from repro.strategies.base import BaseStrategy


class RadiusStrategy(BaseStrategy):
    """Eager iff ``row[p] < radius``."""

    def __init__(
        self,
        row: Sequence[float],
        radius: float,
        first_request_delay_ms: float,
        retry_period_ms: float = DEFAULT_RETRY_PERIOD_MS,
    ) -> None:
        super().__init__(retry_period_ms)
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        if first_request_delay_ms < 0:
            raise ValueError("first_request_delay_ms must be >= 0")
        self.row = row
        self.radius = radius
        self._first_request_delay_ms = first_request_delay_ms

    def eager(self, message_id: int, payload: Any, round_: int, peer: int) -> bool:
        return self.row[peer] < self.radius

    def eager_many(
        self, message_id: int, payload: Any, round_: int, peers: Sequence[int]
    ) -> Sequence[bool]:
        row = self.row
        radius = self.radius
        return [row[peer] < radius for peer in peers]

    def first_request_delay(self, message_id: int, source: int) -> float:
        """``T0``: give in-radius eager paths time to win the race."""
        return self._first_request_delay_ms

    def select_source(
        self, message_id: int, sources: Sequence[int], asked: Set[int]
    ) -> int:
        """Nearest known source by ``row`` (the first of equals)."""
        return min(sources, key=self.row.__getitem__)
