"""Builds a whole simulated deployment.

Given a client network model and a strategy factory, :class:`Cluster`
assembles the simulator, fabric, transports and ``n`` protocol stacks,
plus whichever side agents the configuration enables (shuffled overlay
vs oracle sampling, runtime latency monitor, gossip ranking).  It is
the single construction path shared by tests, examples and the
experiment harness, so every consumer exercises the same wiring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.gossip.config import GossipConfig
from repro.membership.neem_overlay import NeemOverlay, OverlayConfig
from repro.membership.oracle import OraclePeerSampler
from repro.monitors.latency import LatencyMonitorConfig, RuntimeLatencyMonitor
from repro.monitors.ranking import GossipRanking, RankingConfig
from repro.network.connection import PurgePolicy
from repro.network.fabric import FabricConfig, NetworkFabric
from repro.network.transport import ConnectionTransport, DatagramTransport, Transport
from repro.runtime.node import (
    AppDeliverFn,
    ProtocolNode,
    StrategyContext,
    StrategyFactory,
)
from repro.scheduler.interfaces import SchedulerConfig
from repro.sim.engine import Simulator
from repro.sim.rng import sample
from repro.topology.routing import ClientNetworkModel


@dataclass(frozen=True)
class ClusterConfig:
    """Deployment-wide configuration.

    Defaults mirror the paper's section 5.2/5.3 setup: fanout 11 over a
    shuffled overlay with views of 15, connection-oriented transport,
    400 ms retransmission period.  Set ``overlay=None`` to use the
    idealized oracle peer sampler instead of the shuffled overlay, and
    ``use_connections=False`` for a raw lossy datagram transport.
    """

    gossip: GossipConfig = field(default_factory=GossipConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    fabric: FabricConfig = field(default_factory=FabricConfig)
    overlay: Optional[OverlayConfig] = field(default_factory=OverlayConfig)
    use_connections: bool = True
    connection_buffer_capacity: int = 64
    connection_purge_policy: PurgePolicy = PurgePolicy.DROP_OLDEST
    bootstrap_degree: int = 15
    enable_latency_monitor: bool = False
    latency_monitor: LatencyMonitorConfig = field(default_factory=LatencyMonitorConfig)
    enable_gossip_ranking: bool = False
    ranking: RankingConfig = field(default_factory=RankingConfig)


class Cluster:
    """``n`` protocol stacks over one emulated network."""

    def __init__(
        self,
        model: ClientNetworkModel,
        strategy_factory: StrategyFactory,
        config: Optional[ClusterConfig] = None,
        seed: int = 0,
        deliver: Optional[AppDeliverFn] = None,
        node_bandwidth: Optional[dict] = None,
    ) -> None:
        self.model = model
        self.config = config or ClusterConfig()
        self.sim = Simulator(seed=seed)
        self.fabric = NetworkFabric(
            self.sim, model, self.config.fabric, node_bandwidth=node_bandwidth
        )
        self.transport: Transport
        if self.config.use_connections:
            self.transport = ConnectionTransport(
                self.fabric,
                buffer_capacity=self.config.connection_buffer_capacity,
                purge_policy=self.config.connection_purge_policy,
            )
        else:
            self.transport = DatagramTransport(self.fabric)
        self._deliver = deliver or (lambda node, message_id, payload: None)
        self._on_multicast: Optional[Callable[[int, int, float], None]] = None
        self.nodes: List[ProtocolNode] = []
        self._build_nodes(strategy_factory)

    # -- construction ------------------------------------------------------------

    def _build_nodes(self, strategy_factory: StrategyFactory) -> None:
        n = self.model.size
        population = list(range(n))
        bootstrap_rng = self.sim.rng.stream("cluster.bootstrap")
        for node in range(n):
            endpoint = self.transport.endpoint(node)
            node_rng = self.sim.rng.stream(f"node.{node}")

            overlay = None
            if self.config.overlay is not None:
                others = [p for p in population if p != node]
                degree = min(self.config.bootstrap_degree, len(others))
                bootstrap = sample(bootstrap_rng, others, degree)
                overlay = NeemOverlay(
                    self.sim,
                    node,
                    endpoint.send,
                    config=self.config.overlay,
                    bootstrap=bootstrap,
                )
                sampler = overlay
            else:
                sampler = OraclePeerSampler(node, population, node_rng)

            latency_monitor = None
            if self.config.enable_latency_monitor:
                latency_monitor = RuntimeLatencyMonitor(
                    self.sim,
                    node,
                    endpoint.send,
                    neighbors=sampler.neighbors,
                    config=self.config.latency_monitor,
                )

            ranking = None
            if self.config.enable_gossip_ranking:
                if latency_monitor is not None:
                    score: Callable[[], float] = latency_monitor.mean_srtt
                else:
                    # Oracle score: closeness from the model file.
                    score = lambda node=node: self.model.closeness(node)
                ranking = GossipRanking(
                    self.sim,
                    node,
                    endpoint.send,
                    neighbors=sampler.neighbors,
                    local_score=score,
                    config=self.config.ranking,
                )

            context = StrategyContext(
                sim=self.sim,
                node=node,
                rng=node_rng,
                retry_period_ms=self.config.scheduler.retry_period_ms,
                model=self.model,
                latency_monitor=latency_monitor,
                ranking=ranking,
            )
            strategy = strategy_factory(context)

            self.nodes.append(
                ProtocolNode(
                    sim=self.sim,
                    node=node,
                    endpoint=endpoint,
                    peer_sampler=sampler,
                    strategy=strategy,
                    gossip_config=self.config.gossip,
                    scheduler_config=self.config.scheduler,
                    deliver=self._on_deliver,
                    overlay=overlay,
                    latency_monitor=latency_monitor,
                    ranking=ranking,
                )
            )

    def _on_deliver(self, node: int, message_id: int, payload: Any) -> None:
        self._deliver(node, message_id, payload)

    # -- operation -----------------------------------------------------------------

    @property
    def size(self) -> int:
        return self.model.size

    def set_deliver(self, deliver: AppDeliverFn) -> None:
        self._deliver = deliver

    def start(self) -> None:
        """Start all periodic agents on every node."""
        for node in self.nodes:
            node.start()

    def stop(self) -> None:
        for node in self.nodes:
            node.stop()

    def set_multicast_hook(
        self, hook: Callable[[int, int, float], None]
    ) -> None:
        """Install a ``(message_id, origin, now)`` callback fired before
        the origin's synchronous local delivery -- so recorders know the
        message by the time its first delivery arrives."""
        self._on_multicast = hook

    def multicast(self, origin: int, payload: Any) -> int:
        """Multicast from ``origin``; returns the message id."""
        node = self.nodes[origin]
        message_id = node.gossip.id_source.next_id()
        if self._on_multicast is not None:
            self._on_multicast(message_id, origin, self.sim.now)
        node.gossip.multicast_with_id(message_id, payload)
        return message_id

    def run_for(self, duration_ms: float) -> None:
        """Advance simulated time by ``duration_ms``."""
        self.sim.run(until=self.sim.now + duration_ms)

    def run_until_idle(self, max_events: Optional[int] = None) -> None:
        """Drain every pending event (stop periodic agents first or this
        will not terminate)."""
        self.sim.run(max_events=max_events)

    def silence(self, node: int) -> None:
        """Fail ``node`` the way the paper does: firewall it."""
        self.fabric.silence(node)

    @property
    def alive_nodes(self) -> List[int]:
        return [n for n in range(self.size) if not self.fabric.is_silenced(n)]
