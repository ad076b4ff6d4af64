"""The hybrid ("combined") strategy of section 6.4.

Leverages TTL, Radius and Ranked in one rule.  ``Eager?(i, d, r, p)`` is
true iff

- the local node is a best node (Ranked; sender-side, see the note
  below); or
- ``Metric(p) < 2 * rho`` while ``r < u`` (a wider radius during early
  rounds); or
- ``Metric(p) < rho`` otherwise -- "i.e. radius shrinks with increasing
  round number".

``ScheduleNext`` follows the Radius discipline (delayed first request,
nearest source).  The paper's result: regular nodes cut latency from
379 ms to 245 ms while their payload cost only rises from 1.01 to 1.20
transmissions per message, the hubs carrying 10.77 each (3.11 overall).

Reproduction note: the best-node test here is *sender-side* (is the
local node a hub?).  With the symmetric test of section 4.1, every
regular node pays at least ``fanout x best_fraction`` = 11 x 0.2 = 2.2
eager payloads per message just for its hub-directed targets, which
contradicts the 1.20 the paper reports for regular nodes; the
sender-side test reproduces all three published numbers
(1.20 / 10.77 / 3.11) simultaneously.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Sequence, Set

from repro.scheduler.interfaces import DEFAULT_RETRY_PERIOD_MS
from repro.strategies.base import BaseStrategy


class HybridStrategy(BaseStrategy):
    """Ranked hubs + round-shrinking radius over the node's ``row``."""

    def __init__(
        self,
        node: int,
        best: FrozenSet[int],
        row: Sequence[float],
        radius: float,
        eager_rounds: int,
        first_request_delay_ms: float,
        retry_period_ms: float = DEFAULT_RETRY_PERIOD_MS,
    ) -> None:
        super().__init__(retry_period_ms)
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        if eager_rounds < 0:
            raise ValueError(f"eager_rounds must be >= 0, got {eager_rounds}")
        if first_request_delay_ms < 0:
            raise ValueError("first_request_delay_ms must be >= 0")
        self.row = row
        self.is_hub = node in best
        self.radius = radius
        self.eager_rounds = eager_rounds
        self._first_request_delay_ms = first_request_delay_ms

    def eager(self, message_id: int, payload: Any, round_: int, peer: int) -> bool:
        if self.is_hub:
            return True
        metric = self.row[peer]
        if round_ < self.eager_rounds:
            return metric < 2.0 * self.radius
        return metric < self.radius

    def first_request_delay(self, message_id: int, source: int) -> float:
        return self._first_request_delay_ms

    def select_source(
        self, message_id: int, sources: Sequence[int], asked: Set[int]
    ) -> int:
        return min(sources, key=self.row.__getitem__)
