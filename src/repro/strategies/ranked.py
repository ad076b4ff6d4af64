"""The Ranked strategy (section 4.1).

A set of *best nodes* serves as hubs: ``Eager?`` is true whenever either
endpoint of the transmission is a best node, so payload flows eagerly
into and out of the hub set while spoke-to-spoke traffic stays lazy.
The emergent structure is hubs-and-spokes (Fig. 4c), with best nodes
"bearing most of the load".

The best-node set is given as a ``frozenset``.  The paper admits both an
explicitly configured set (an ISP designating well-provisioned machines)
and a rank "computed using local Performance Monitors and a gossip based
sorting protocol"; like the paper's evaluation, the scenario factories
take it from the model file
(:meth:`~repro.topology.routing.ClientNetworkModel.best_nodes`).  The
protocol tolerates approximate rankings by design (evaluated under noise
in section 6.5).
"""

from __future__ import annotations

from typing import Any, FrozenSet

from repro.scheduler.interfaces import DEFAULT_RETRY_PERIOD_MS
from repro.strategies.base import BaseStrategy


class RankedStrategy(BaseStrategy):
    """Eager iff the local node or the target peer is a best node."""

    def __init__(
        self,
        node: int,
        best: FrozenSet[int],
        retry_period_ms: float = DEFAULT_RETRY_PERIOD_MS,
    ) -> None:
        super().__init__(retry_period_ms)
        self.best = best
        self.is_hub = node in best

    def eager(self, message_id: int, payload: Any, round_: int, peer: int) -> bool:
        return self.is_hub or peer in self.best
