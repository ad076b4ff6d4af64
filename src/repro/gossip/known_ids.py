"""The known-message set ``K`` with bounded memory.

Fig. 2 keeps ``K`` only to suppress duplicates, and the paper defers to
known buffer-management results ([5, 13]) for pruning it "ensuring with
high probability that no active messages are prematurely garbage
collected".  We implement the standard scheme: insertion-ordered storage
evicting the oldest identifiers beyond a capacity sized well above the
number of messages that can be active simultaneously.  Capacity is the
only bound; no entry expires by age.

With 400 messages per run and ~500 ms inter-multicast spacing, a message
is active for a few seconds, so even a few hundred slots is generous;
the default of 4096 makes premature eviction impossible in-practice
while still bounding memory -- exactly the property the paper assumes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional


class KnownIds(OrderedDict[int, None]):
    """An insertion-ordered set of message ids with LRU-style eviction.

    Stored as an ordered map with ``None`` values; subclassing the map
    keeps ``message_id in known`` -- the duplicate check every received
    copy makes -- a C-level lookup.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        super().__init__()
        self.capacity = capacity
        self.evicted = 0

    def add(self, message_id: int) -> Optional[int]:
        """Record ``message_id``; returns an evicted id when over capacity.

        Re-adding a known id refreshes its position (it is clearly still
        active) instead of inserting a duplicate.
        """
        if message_id in self:
            self.move_to_end(message_id)
            return None
        self[message_id] = None
        if len(self) > self.capacity:
            evicted_id, _ = self.popitem(last=False)
            self.evicted += 1
            return evicted_id
        return None
