"""The known-message set ``K`` with bounded-memory garbage collection.

Fig. 2 keeps ``K`` only to suppress duplicates, and the paper defers to
known buffer-management results ([5, 13]) for pruning it "ensuring with
high probability that no active messages are prematurely garbage
collected".  We implement the standard scheme: insertion-ordered storage
evicting the oldest identifiers beyond a capacity sized well above the
number of messages that can be active simultaneously.

With 400 messages per run and ~500 ms inter-multicast spacing, a message
is active for a few seconds, so even a few hundred slots is generous;
the default of 4096 makes premature eviction impossible in-practice
while still bounding memory -- exactly the property the paper assumes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional


class KnownIds(OrderedDict[int, float]):
    """An insertion-ordered set of message ids with LRU-style eviction.

    Stored as the ordered map ``id -> time recorded``; subclassing the
    map keeps ``message_id in known`` -- the duplicate check every
    received copy makes -- a C-level lookup.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        super().__init__()
        self.capacity = capacity
        self.evicted = 0

    def add(self, message_id: int, now: float = 0.0) -> Optional[int]:
        """Record ``message_id``; returns an evicted id when over capacity.

        Re-adding a known id refreshes its position (it is clearly still
        active) instead of inserting a duplicate.
        """
        if message_id in self:
            self.move_to_end(message_id)
            self[message_id] = now
            return None
        self[message_id] = now
        if len(self) > self.capacity:
            evicted_id, _ = self.popitem(last=False)
            self.evicted += 1
            return evicted_id
        return None

    def seen_at(self, message_id: int) -> Optional[float]:
        """When the id was (last) recorded, or ``None`` if unknown."""
        return self.get(message_id)

    def expire_before(self, cutoff: float) -> int:
        """Drop ids recorded before ``cutoff``; returns how many."""
        stale = [mid for mid, at in self.items() if at < cutoff]
        for mid in stale:
            del self[mid]
        self.evicted += len(stale)
        return len(stale)
