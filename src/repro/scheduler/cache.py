"""The payload cache ``C`` of Fig. 3.

Holds ``(payload, round)`` for messages this node advertised lazily, so
later ``IWANT`` requests can be answered.  Like the known-ids set ``K``,
the paper bounds it with standard buffer management; we evict the
oldest entries beyond a capacity sized far above the number of
simultaneously active messages, and keep no other expiry.  A request
arriving after eviction is simply not answered -- the requester retries
another source, which is exactly the omission-tolerance path of the
protocol.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional, Tuple


class PayloadCache:
    """Bounded map: message id -> (payload, round)."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[int, Tuple[Any, int]]" = OrderedDict()
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, message_id: int) -> bool:
        return message_id in self._entries

    def put(self, message_id: int, payload: Any, round_: int) -> None:
        """Store (or refresh) the payload for ``message_id``."""
        if message_id in self._entries:
            self._entries.move_to_end(message_id)
        self._entries[message_id] = (payload, round_)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evicted += 1

    def get(self, message_id: int) -> Optional[Tuple[Any, int]]:
        """The cached (payload, round), or ``None`` after eviction."""
        return self._entries.get(message_id)

    def discard(self, message_id: int) -> None:
        self._entries.pop(message_id, None)
