"""Bounded partial view of the overlay.

Invariants (property-tested):

- never contains the owning node;
- never contains duplicates;
- never exceeds its capacity.

Eviction on overflow is uniform random, which preserves the view's
approximate uniformity under shuffling -- the property the paper's
reliability argument leans on ("the random nature of an unstructured
overlay which is key to reliability", section 7).
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional

from repro.sim.rng import sample


class PartialView:
    """A capacity-bounded random set of peer ids."""

    def __init__(
        self,
        owner: int,
        capacity: int,
        rng: random.Random,
        initial: Optional[Iterable[int]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.owner = owner
        self.capacity = capacity
        self._rng = rng
        self._peers: List[int] = []
        self._member = set()
        if initial is not None:
            for peer in initial:
                self.add(peer)

    def __len__(self) -> int:
        return len(self._peers)

    def __contains__(self, peer: int) -> bool:
        return peer in self._member

    def peers(self) -> List[int]:
        """A copy of the current view contents."""
        return list(self._peers)

    def add(self, peer: int) -> Optional[int]:
        """Insert ``peer``; returns the evicted peer when full, if any.

        Self-insertions and duplicates are ignored (returns ``None``).
        """
        if peer == self.owner or peer in self._member:
            return None
        evicted = None
        if len(self._peers) >= self.capacity:
            index = self._rng.randrange(len(self._peers))
            evicted = self._peers[index]
            # Swap-remove keeps add O(1).
            self._peers[index] = self._peers[-1]
            self._peers.pop()
            self._member.discard(evicted)
        self._peers.append(peer)
        self._member.add(peer)
        return evicted

    def sample(self, count: int, exclude: Optional[int] = None) -> List[int]:
        """Uniform sample without replacement of up to ``count`` peers."""
        candidates = (
            self._peers
            if exclude is None
            else [p for p in self._peers if p != exclude]
        )
        if count >= len(candidates):
            return list(candidates)
        return sample(self._rng, candidates, count)

    def random_peer(self) -> Optional[int]:
        if not self._peers:
            return None
        return self._rng.choice(self._peers)
