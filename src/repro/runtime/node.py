"""One node's full protocol stack.

A :class:`ProtocolNode` owns the components of the paper's Fig. 1 for a
single participant and sets up the kind-based dispatch that a port
number would on a real host: MSG/IHAVE/IWANT go to the Payload
Scheduler, SHUFFLE traffic to the membership agent, PING/PONG to the
latency monitor, RANK to the ranking agent.  The endpoint reads that
table itself, so a received packet reaches its agent's ``handle``
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
from repro.monitors.latency import RuntimeLatencyMonitor
from repro.monitors.ranking import GossipRanking
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

    ``model`` gives oracle access (the paper's model-file mode);
    ``latency_monitor``/``ranking`` are the measured alternatives and are
    ``None`` unless the cluster enabled them.  ``rng`` is the node's own
    deterministic stream.
    """

    sim: Simulator
    node: int
    rng: random.Random
    retry_period_ms: float
    model: Optional[ClientNetworkModel] = None
    latency_monitor: Optional[RuntimeLatencyMonitor] = None
    ranking: Optional[GossipRanking] = None


StrategyFactory = Callable[[StrategyContext], TransmissionStrategy]


class ProtocolNode:
    """Full stack: endpoint + scheduler + gossip (+ optional agents)."""

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
        latency_monitor: Optional[RuntimeLatencyMonitor] = None,
        ranking: Optional[GossipRanking] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.endpoint = endpoint
        self.peer_sampler = peer_sampler
        self.strategy = strategy
        self.overlay = overlay
        self.latency_monitor = latency_monitor
        self.ranking = ranking

        self.scheduler = scheduler = LazyPointToPoint(
            sim, node, strategy, endpoint.send, scheduler_config
        )
        self.gossip = GossipProtocol(
            node=node,
            config=gossip_config,
            peer_sampler=peer_sampler,
            l_send=scheduler.l_send,
            deliver=partial(deliver, node),
            id_source=MessageIdSource(sim.rng.stream(f"ids.{node}")),
        )
        # Join the scheduler to gossip above and the endpoint below,
        # bursts included.
        scheduler.bind(self.gossip.l_receive)
        scheduler.send_many = endpoint.send_many
        self.gossip.l_send_many = scheduler.l_send_many

        # Failure detection: when the latency monitor runs with a
        # suspicion threshold, suspected peers are purged from the
        # overlay view (NeEM drops broken connections the same way).
        if (
            latency_monitor is not None
            and overlay is not None
            and latency_monitor.config.suspicion_threshold > 0
        ):
            latency_monitor.on_suspect = lambda peer: overlay.view.remove(peer)
            overlay.peer_filter = (
                lambda peer: peer not in latency_monitor.suspected
            )

        self._dispatch: Dict[str, Callable[[int, str, Any], None]] = {
            kind: scheduler.handle for kind in LazyPointToPoint.KINDS
        }
        if overlay is not None:
            for kind in NeemOverlay.KINDS:
                self._dispatch[kind] = overlay.handle
        if latency_monitor is not None:
            for kind in RuntimeLatencyMonitor.KINDS:
                self._dispatch[kind] = latency_monitor.handle
        if ranking is not None:
            for kind in GossipRanking.KINDS:
                self._dispatch[kind] = ranking.handle
        endpoint.listen(self._dispatch)
        endpoint.set_receiver(self._receive)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Start the node's periodic agents (overlay, monitors)."""
        if self.overlay is not None:
            self.overlay.start()
        if self.latency_monitor is not None:
            self.latency_monitor.start()
        if self.ranking is not None:
            self.ranking.start()

    def stop(self) -> None:
        if self.overlay is not None:
            self.overlay.stop()
        if self.latency_monitor is not None:
            self.latency_monitor.stop()
        if self.ranking is not None:
            self.ranking.stop()

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
