"""Self-tuning radius strategy (the paper's adaptive-protocols outlook).

The conclusion of the paper singles out the approach as "a promising
base for building large scale adaptive protocols, given that its
operation does not require tight global coordination".  This strategy is
that extension: a Radius strategy whose radius is not configured but
*controlled*, locally and independently at each node, to hit a target
eager-transmission rate (i.e. a payload budget).

Control loop: decisions are counted in windows of ``window`` queries;
after each window the radius moves multiplicatively against the error
between the observed eager rate and the target.  Because correctness
never depends on the strategy (any ``Eager?`` answer is safe), the loop
can be tuned freely -- the protocol below absorbs any transient.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Set

from repro.scheduler.interfaces import DEFAULT_RETRY_PERIOD_MS
from repro.strategies.base import BaseStrategy


class AdaptiveRadiusStrategy(BaseStrategy):
    """Radius strategy with a local eager-rate controller.

    ``row[p]`` is ``Metric(p)``, as for
    :class:`~repro.strategies.radius.RadiusStrategy`.
    """

    def __init__(
        self,
        row: Sequence[float],
        target_eager_rate: float,
        initial_radius: float,
        first_request_delay_ms: float,
        retry_period_ms: float = DEFAULT_RETRY_PERIOD_MS,
        window: int = 50,
        gain: float = 0.5,
        min_radius: float = 0.1,
        max_radius: Optional[float] = None,
    ) -> None:
        super().__init__(retry_period_ms)
        if not 0.0 < target_eager_rate < 1.0:
            raise ValueError(f"target_eager_rate out of (0,1): {target_eager_rate}")
        if initial_radius <= 0:
            raise ValueError("initial_radius must be positive")
        if window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 < gain <= 1.0:
            raise ValueError("gain must be in (0, 1]")
        self.row = row
        self.target_eager_rate = target_eager_rate
        self.radius = initial_radius
        self.min_radius = min_radius
        self.max_radius = max_radius
        self.window = window
        self.gain = gain
        self._first_request_delay_ms = first_request_delay_ms
        self._window_queries = 0
        self._window_eager = 0
        self.adjustments = 0

    def eager(self, message_id: int, payload: Any, round_: int, peer: int) -> bool:
        decision = self.row[peer] < self.radius
        self._window_queries += 1
        self._window_eager += int(decision)
        if self._window_queries >= self.window:
            self._adjust()
        return decision

    def _adjust(self) -> None:
        rate = self._window_eager / self._window_queries
        self._window_queries = 0
        self._window_eager = 0
        self.adjustments += 1
        # Multiplicative update: grow the radius when starving, shrink
        # when over budget.  Scale-free, so it works for latency metrics
        # (tens of ms) and distance metrics (hundreds of units) alike.
        error = self.target_eager_rate - rate
        factor = 1.0 + self.gain * error / max(self.target_eager_rate, 1e-9)
        self.radius = max(self.min_radius, self.radius * factor)
        if self.max_radius is not None:
            self.radius = min(self.max_radius, self.radius)

    # Radius-style request schedule.

    def first_request_delay(self, message_id: int, source: int) -> float:
        return self._first_request_delay_ms

    def select_source(
        self, message_id: int, sources: Sequence[int], asked: Set[int]
    ) -> int:
        return min(sources, key=self.row.__getitem__)
