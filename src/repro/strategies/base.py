"""Shared strategy behaviour.

The Flat, TTL and Ranked strategies share the same ``ScheduleNext``
discipline (section 4.1): first request immediately on the first
advertisement, further requests every ``T`` to known sources in arrival
order.  :class:`BaseStrategy` provides that; Radius-style strategies
override the timing hooks.
"""

from __future__ import annotations

import abc
from typing import Any, Sequence, Set

from repro.scheduler.interfaces import DEFAULT_RETRY_PERIOD_MS


class BaseStrategy(abc.ABC):
    """Default ScheduleNext behaviour: immediate first request, FIFO
    source order, retry period ``T``."""

    def __init__(self, retry_period_ms: float = DEFAULT_RETRY_PERIOD_MS) -> None:
        if retry_period_ms <= 0:
            raise ValueError("retry_period_ms must be positive")
        self._retry_period_ms = retry_period_ms

    @abc.abstractmethod
    def eager(self, message_id: int, payload: Any, round_: int, peer: int) -> bool:
        """``Eager?(i, d, r, p)``."""

    def eager_many(
        self, message_id: int, payload: Any, round_: int, peers: Sequence[int]
    ) -> Sequence[bool]:
        """``Eager?`` for each of ``peers``, in peer order."""
        return [self.eager(message_id, payload, round_, peer) for peer in peers]

    def first_request_delay(self, message_id: int, source: int) -> float:
        return 0.0

    def select_source(
        self, message_id: int, sources: Sequence[int], asked: Set[int]
    ) -> int:
        return sources[0]

    @property
    def retry_period_ms(self) -> float:
        return self._retry_period_ms
