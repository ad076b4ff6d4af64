"""The Flat strategy (section 4.1).

``Eager?`` returns true with probability ``p``, independent of message,
round and peer.  ``p = 1`` is classic eager push gossip, ``p = 0`` pure
lazy push, and intermediate values trace the latency/bandwidth curve of
Fig. 5(a) that the environment-aware strategies are judged against.
"""

from __future__ import annotations

import random
from typing import Any, Sequence

from repro.scheduler.interfaces import DEFAULT_RETRY_PERIOD_MS
from repro.strategies.base import BaseStrategy


class FlatStrategy(BaseStrategy):
    """Eager with fixed probability ``p``."""

    def __init__(
        self,
        probability: float,
        rng: random.Random,
        retry_period_ms: float = DEFAULT_RETRY_PERIOD_MS,
    ) -> None:
        super().__init__(retry_period_ms)
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability out of range: {probability}")
        self.probability = probability
        self._rng = rng

    def eager(self, message_id: int, payload: Any, round_: int, peer: int) -> bool:
        if self.probability >= 1.0:
            return True
        if self.probability <= 0.0:
            return False
        return self._rng.random() < self.probability

    def eager_many(
        self, message_id: int, payload: Any, round_: int, peers: Sequence[int]
    ) -> Sequence[bool]:
        # p in {0, 1} draws nothing; otherwise one draw per peer, in order.
        probability = self.probability
        if probability >= 1.0:
            return [True] * len(peers)
        if probability <= 0.0:
            return [False] * len(peers)
        draw = self._rng.random
        return [draw() < probability for _ in peers]


class PureEagerStrategy(FlatStrategy):
    """Classic eager push gossip (Flat with ``p = 1``)."""

    def __init__(self, retry_period_ms: float = DEFAULT_RETRY_PERIOD_MS) -> None:
        # Placeholder generator: eager() short-circuits at p == 1.0, so
        # this instance is never drawn from.
        super().__init__(1.0, random.Random(0), retry_period_ms)  # noqa: DET011


class PureLazyStrategy(FlatStrategy):
    """Pure lazy push gossip (Flat with ``p = 0``)."""

    def __init__(self, retry_period_ms: float = DEFAULT_RETRY_PERIOD_MS) -> None:
        # Placeholder generator: eager() short-circuits at p == 0.0, so
        # this instance is never drawn from.
        super().__init__(0.0, random.Random(0), retry_period_ms)  # noqa: DET011
