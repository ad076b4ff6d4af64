"""The Ranked strategy (section 4.1).

A set of *best nodes* serves as hubs: ``Eager?`` is true whenever either
endpoint of the transmission is a best node, so payload flows eagerly
into and out of the hub set while spoke-to-spoke traffic stays lazy.
The emergent structure is hubs-and-spokes (Fig. 4c), with best nodes
"bearing most of the load".

Who is best comes from a :class:`RankingView`.  The paper admits both an
explicitly configured set (an ISP designating well-provisioned machines:
:class:`StaticRanking`) and a rank "computed using local Performance
Monitors and a gossip based sorting protocol"; like the paper's
evaluation, this repository computes the rank from the model file
(:class:`~repro.monitors.ranking.OracleRanking`).  The protocol tolerates
approximate rankings by design (evaluated under noise in section 6.5).
"""

from __future__ import annotations

from typing import Any, Iterable, Protocol, runtime_checkable

from repro.scheduler.interfaces import DEFAULT_RETRY_PERIOD_MS
from repro.strategies.base import BaseStrategy


@runtime_checkable
class RankingView(Protocol):
    """Answers "is this node currently considered a best node?"."""

    def is_best(self, node: int) -> bool: ...


class StaticRanking:
    """A fixed best-node set (the ISP-configured case)."""

    def __init__(self, best_nodes: Iterable[int]) -> None:
        self._best = frozenset(best_nodes)

    def is_best(self, node: int) -> bool:
        return node in self._best

    @property
    def best_nodes(self) -> "frozenset[int]":
        return self._best


class RankedStrategy(BaseStrategy):
    """Eager iff the local node or the target peer is a best node."""

    def __init__(
        self,
        node: int,
        ranking: RankingView,
        retry_period_ms: float = DEFAULT_RETRY_PERIOD_MS,
    ) -> None:
        super().__init__(retry_period_ms)
        self.node = node
        self.ranking = ranking

    def eager(self, message_id: int, payload: Any, round_: int, peer: int) -> bool:
        return self.ranking.is_best(self.node) or self.ranking.is_best(peer)
