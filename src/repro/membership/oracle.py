"""Idealized uniform peer sampling.

Samples uniformly over the *whole* population, as the abstract peer
sampling service of [10] would in the limit.  Failed nodes remain
sampleable -- a real sampler cannot know a peer just died -- so gossip
towards dead nodes is wasted exactly as it is on the testbed.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.sim.rng import sample


class OraclePeerSampler:
    """Uniform sampler over a fixed population (minus the owner)."""

    def __init__(
        self, owner: int, population: Sequence[int], rng: random.Random
    ) -> None:
        self.owner = owner
        self._others: List[int] = [n for n in population if n != owner]
        if not self._others:
            raise ValueError("population must contain at least one other node")
        self._rng = rng

    def sample(self, fanout: int) -> List[int]:
        if fanout >= len(self._others):
            return list(self._others)
        return sample(self._rng, self._others, fanout)

    def neighbors(self) -> List[int]:
        return list(self._others)
