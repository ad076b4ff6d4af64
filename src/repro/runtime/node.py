"""One node's full protocol stack.

A :class:`ProtocolNode` owns the components of the paper's Fig. 1 for a
single participant and performs the kind-based dispatch that a port
number would on a real host: MSG/IHAVE/IWANT go to the Payload
Scheduler, SHUFFLE traffic to the membership agent, PING/PONG to the
latency monitor, RANK to the ranking agent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.gossip.config import GossipConfig
from repro.gossip.known_ids import KnownIds
from repro.gossip.message_ids import MessageIdSource
from repro.gossip.protocol import GossipProtocol
from repro.membership.neem_overlay import NeemOverlay
from repro.membership.peer_sampling import PeerSamplingService
from repro.monitors.latency import RuntimeLatencyMonitor
from repro.monitors.ranking import GossipRanking
from repro.network.transport import Endpoint
from repro.scheduler.health import PeerHealth
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
        gc_retention_ms: Optional[float] = None,
        gc_period_ms: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.endpoint = endpoint
        self.peer_sampler = peer_sampler
        self.strategy = strategy
        self.overlay = overlay
        self.latency_monitor = latency_monitor
        self.ranking = ranking
        self.scheduler_config = scheduler_config
        self.restarts = 0
        #: Recovery counters from schedulers discarded by restart().
        self._recovery_carryover: Dict[str, int] = {}

        # Health-aware recovery: IWANT outcomes feed per-peer scores, and
        # the latency monitor's suspicion signal (when running) acts as a
        # hard blacklist so requests route around likely-dead sources.
        self.health: Optional[PeerHealth] = None
        if scheduler_config.recovery.health_aware:
            self.health = PeerHealth()
            if latency_monitor is not None:
                self.health.suspicion = (
                    lambda peer: peer in latency_monitor.suspected
                )

        self.scheduler = LazyPointToPoint(
            sim, node, strategy, endpoint.send, scheduler_config,
            health=self.health,
        )
        self.gossip = GossipProtocol(
            node=node,
            config=gossip_config,
            peer_sampler=peer_sampler,
            l_send=self.scheduler.l_send,
            deliver=lambda message_id, payload: deliver(node, message_id, payload),
            id_source=MessageIdSource(sim.rng.stream(f"ids.{node}")),
            now=lambda: sim.now,
        )
        self.scheduler.bind(self.gossip.l_receive)

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

        self.gc = None
        if gc_retention_ms is not None:
            from repro.runtime.gc import DEFAULT_PERIOD_MS, StateGarbageCollector

            self.gc = StateGarbageCollector(
                sim,
                self.gossip,
                self.scheduler,
                retention_ms=gc_retention_ms,
                period_ms=gc_period_ms or DEFAULT_PERIOD_MS,
            )

        self._dispatch: Dict[str, Callable[[int, str, Any], None]] = {}
        for kind in LazyPointToPoint.KINDS:
            self._dispatch[kind] = self.scheduler.handle
        if overlay is not None:
            for kind in NeemOverlay.KINDS:
                self._dispatch[kind] = overlay.handle
        if latency_monitor is not None:
            for kind in RuntimeLatencyMonitor.KINDS:
                self._dispatch[kind] = latency_monitor.handle
        if ranking is not None:
            for kind in GossipRanking.KINDS:
                self._dispatch[kind] = ranking.handle
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
        if self.gc is not None:
            self.gc.start()

    def stop(self) -> None:
        if self.overlay is not None:
            self.overlay.stop()
        if self.latency_monitor is not None:
            self.latency_monitor.stop()
        if self.ranking is not None:
            self.ranking.stop()
        if self.gc is not None:
            self.gc.stop()

    def restart(self) -> None:
        """Crash-restart: come back with scheduler/gossip state wiped.

        Models a process restart (as opposed to the paper's firewall
        silencing, which preserves state): the payload cache, received
        set, request queue and known-ids set are rebuilt from scratch, so
        the node re-learns everything through gossip.  The overlay view
        and monitors survive -- they model longer-lived infrastructure
        (rejoin bootstrap, kernel RTT caches) and keeping them makes the
        wiped-state effect attributable to the scheduler alone.
        """
        self.restarts += 1
        for name, value in self.recovery_counters().items():
            self._recovery_carryover[name] = value
        old_requests = self.scheduler.requests
        old_requests.cancel_all()
        self.scheduler = LazyPointToPoint(
            self.sim,
            self.node,
            self.strategy,
            self.endpoint.send,
            self.scheduler_config,
            health=self.health,
        )
        self.gossip.known = KnownIds(self.gossip.config.known_ids_capacity)
        self.gossip.l_send = self.scheduler.l_send
        self.scheduler.bind(self.gossip.l_receive)
        if self.gc is not None:
            self.gc.scheduler = self.scheduler
        # ``_dispatch`` holds the discarded scheduler's bound ``handle``.
        for kind in LazyPointToPoint.KINDS:
            self._dispatch[kind] = self.scheduler.handle

    def recovery_counters(self) -> Dict[str, int]:
        """Lifetime recovery counters, surviving restarts."""
        requests = self.scheduler.requests
        carry = self._recovery_carryover
        return {
            "retries": carry.get("retries", 0) + requests.retries_sent,
            "backoff_resets": (
                carry.get("backoff_resets", 0) + requests.backoff_resets
            ),
            "blacklist_skips": (
                carry.get("blacklist_skips", 0) + requests.blacklist_skips
            ),
            "recovery_stalls": (
                carry.get("recovery_stalls", 0) + requests.recovery_stalls
            ),
            "restarts": self.restarts,
        }

    # -- application interface ---------------------------------------------------

    def multicast(self, payload: Any) -> int:
        """Multicast ``payload`` to the group; returns the message id."""
        return self.gossip.multicast(payload)

    # -- internals ------------------------------------------------------------

    def _receive(self, src: int, kind: str, payload: Any) -> None:
        handler = self._dispatch.get(kind)
        if handler is None:  # pragma: no cover - wiring error
            raise ValueError(f"node {self.node}: no handler for kind {kind!r}")
        handler(src, kind, payload)
