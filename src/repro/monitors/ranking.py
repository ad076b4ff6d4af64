"""Best-node ranking for the Ranked strategy.

The paper offers two routes to a best-node set (section 4.1): explicit
configuration (e.g. by an ISP; :class:`~repro.strategies.ranked.StaticRanking`)
and a rank "computed using local Performance Monitors and a gossip based
sorting protocol [11]", noting the protocol only needs the ranking to be
*approximate*.  The evaluation sidesteps the monitor as the paper does
(section 4.3): :class:`OracleRanking` scores every node by its closeness
(mean model latency to all others) and takes the best ``fraction``.  The
approximation claim is exercised by Fig. 6's noise wrapper
(:class:`~repro.strategies.noise.NoisyStrategy`).
"""

from __future__ import annotations

import weakref
from typing import Dict

from repro.topology.routing import ClientNetworkModel


class OracleRanking:
    """Best nodes = lowest-closeness ``fraction`` of the population."""

    def __init__(self, model: ClientNetworkModel, fraction: float) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction out of range: {fraction}")
        self.fraction = fraction
        count = max(1, round(model.size * fraction))
        by_closeness = sorted(range(model.size), key=model.closeness)
        self._best = frozenset(by_closeness[:count])

    @property
    def best_nodes(self) -> frozenset:
        return self._best

    def is_best(self, node: int) -> bool:
        return node in self._best


#: One :class:`OracleRanking` per (model, fraction): the closeness sort
#: is O(n^2) and the same for every node, so strategies share it.  Keyed
#: weakly by the model, so a dead model's entries go with it.
_oracle_rankings: weakref.WeakKeyDictionary[
    ClientNetworkModel, Dict[float, OracleRanking]
] = weakref.WeakKeyDictionary()


def oracle_ranking(model: ClientNetworkModel, fraction: float) -> OracleRanking:
    """The shared :class:`OracleRanking` of ``model`` at ``fraction``."""
    rankings = _oracle_rankings.setdefault(model, {})
    ranking = rankings.get(fraction)
    if ranking is None:
        ranking = rankings[fraction] = OracleRanking(model, fraction)
    return ranking
