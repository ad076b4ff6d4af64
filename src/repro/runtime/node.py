"""One node's full protocol stack.

A :class:`ProtocolNode` owns the components of the paper's Fig. 1 for a
single participant and sets up the kind-based dispatch that a port
number would on a real host: MSG/IHAVE/IWANT go to the Payload
Scheduler, SHUFFLE traffic to the membership agent.  The endpoint reads
that table itself, so a received packet reaches its agent's ``handle``
straight from the endpoint.  Downwards, a gossip forward
reaches the transport as one burst: gossip ``l_send_many`` -> scheduler
``l_send_many`` -> endpoint ``send_many``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Optional

from repro.gossip.config import GossipConfig
from repro.gossip.message_ids import MessageIdSource
from repro.gossip.protocol import GossipProtocol
from repro.membership.neem_overlay import NeemOverlay
from repro.membership.peer_sampling import PeerSamplingService
from repro.network.transport import Endpoint
from repro.scheduler.interfaces import SchedulerConfig, TransmissionStrategy
from repro.scheduler.lazy_point_to_point import LazyPointToPoint
from repro.sim.engine import Simulator
from repro.topology.routing import ClientNetworkModel

#: Application delivery callback: (node, message_id, payload) -> None
AppDeliverFn = Callable[[int, int, Any], None]


@dataclass
class StrategyContext:
    """Everything a strategy factory may want when building one node's
    Transmission Strategy.

    ``model`` is the model file the paper's evaluation drives every
    strategy from (section 4.3); a factory hands the strategy its
    node's row.  ``rng`` is the node's own deterministic stream.
    """

    node: int
    rng: random.Random
    retry_period_ms: float
    model: ClientNetworkModel


StrategyFactory = Callable[[StrategyContext], TransmissionStrategy]


class ProtocolNode:
    """Full stack: endpoint + scheduler + gossip (+ optional overlay)."""

    def __init__(
        self,
        sim: Simulator,
        node: int,
        endpoint: Endpoint,
        peer_sampler: PeerSamplingService,
        strategy: TransmissionStrategy,
        gossip_config: GossipConfig,
        scheduler_config: SchedulerConfig,
        deliver: AppDeliverFn,
        overlay: Optional[NeemOverlay] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.endpoint = endpoint
        self.peer_sampler = peer_sampler
        self.strategy = strategy
        self.overlay = overlay

        self.scheduler = scheduler = LazyPointToPoint(
            sim, node, strategy, endpoint.send, endpoint.send_many, scheduler_config
        )
        self.gossip = GossipProtocol(
            node=node,
            config=gossip_config,
            peer_sampler=peer_sampler,
            l_send_many=scheduler.l_send_many,
            deliver=partial(deliver, node),
            id_source=MessageIdSource(sim.rng.stream(f"ids.{node}")),
        )
        scheduler.bind(self.gossip.l_receive)

        self._dispatch: Dict[str, Callable[[int, str, Any], None]] = {
            kind: scheduler.handle for kind in LazyPointToPoint.KINDS
        }
        if overlay is not None:
            for kind in NeemOverlay.KINDS:
                self._dispatch[kind] = overlay.handle
        endpoint.listen(self._dispatch)
        endpoint.set_receiver(self._receive)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Start the node's periodic agent (the overlay's shuffles)."""
        if self.overlay is not None:
            self.overlay.start()

    def stop(self) -> None:
        if self.overlay is not None:
            self.overlay.stop()

    # -- application interface ---------------------------------------------------

    def multicast(self, payload: Any) -> int:
        """Multicast ``payload`` to the group; returns the message id."""
        return self.gossip.multicast(payload)

    # -- internals ------------------------------------------------------------

    def _receive(self, src: int, kind: str, payload: Any) -> None:
        # The endpoint routes listed kinds itself; anything else lands
        # here.
        handler = self._dispatch.get(kind)
        if handler is None:  # pragma: no cover - wiring error
            raise ValueError(f"node {self.node}: no handler for kind {kind!r}")
        handler(src, kind, payload)
