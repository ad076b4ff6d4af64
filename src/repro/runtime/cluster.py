"""Builds a whole simulated deployment.

Given a client network model and a strategy factory, :class:`Cluster`
assembles the simulator, fabric, transports and ``n`` protocol stacks,
each sampling peers from the shuffled overlay or the oracle sampler as
configured.  It is the single construction path shared by tests,
examples and the experiment harness, so every consumer exercises the
same wiring -- a non-gossip comparator (:mod:`repro.baselines`) too,
built by a :data:`SystemFactory` in place of the protocol stacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.gossip.config import GossipConfig
from repro.membership.neem_overlay import NeemOverlay, OverlayConfig
from repro.membership.oracle import OraclePeerSampler
from repro.network.fabric import FabricConfig, NetworkFabric
from repro.network.transport import ConnectionTransport
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

#: ``(transport, model, deliver) -> system``, a picklable frozen dataclass
#: like the strategy factories.  The system has ``start()``, ``stop()`` and
#: ``multicast_with_id(origin, message_id, payload)``.
SystemFactory = Callable[[ConnectionTransport, ClientNetworkModel, AppDeliverFn], Any]


@dataclass(frozen=True)
class ClusterConfig:
    """Deployment-wide configuration.

    Defaults mirror the paper's section 5.2/5.3 setup: fanout 11 over a
    shuffled overlay with views of 15, NeEM's connection transport with
    drop-oldest purging, 400 ms retransmission period.  Set
    ``overlay=None`` to use the idealized oracle peer sampler instead of
    the shuffled overlay.
    """

    gossip: GossipConfig = field(default_factory=GossipConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    fabric: FabricConfig = field(default_factory=FabricConfig)
    overlay: Optional[OverlayConfig] = field(default_factory=OverlayConfig)
    connection_buffer_capacity: int = 64
    bootstrap_degree: int = 15


class Cluster:
    """``n`` protocol stacks over one emulated network, or ``system`` in
    their place (``nodes`` then stays empty)."""

    def __init__(
        self,
        model: ClientNetworkModel,
        strategy_factory: Optional[StrategyFactory],
        config: Optional[ClusterConfig] = None,
        seed: int = 0,
        node_bandwidth: Optional[dict] = None,
        system: Optional[SystemFactory] = None,
    ) -> None:
        self.model = model
        self.config = config or ClusterConfig()
        self.sim = Simulator(seed=seed)
        self.fabric = NetworkFabric(
            self.sim, model, self.config.fabric, node_bandwidth=node_bandwidth
        )
        self.transport = ConnectionTransport(
            self.fabric, buffer_capacity=self.config.connection_buffer_capacity
        )
        self._deliver: AppDeliverFn = lambda node, message_id, payload: None
        self._on_multicast: Optional[Callable[[int, int, float], None]] = None
        self.nodes: List[ProtocolNode] = []
        self.system: Any = None
        self._multicasts = 0
        if system is not None:
            self.system = system(self.transport, model, self._on_deliver)
        elif strategy_factory is not None:
            self._build_nodes(strategy_factory)
        else:
            raise ValueError("a cluster needs a strategy_factory or a system")

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

            context = StrategyContext(
                node=node,
                rng=node_rng,
                retry_period_ms=self.config.scheduler.retry_period_ms,
                model=self.model,
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
        """Start all periodic agents on every node (or the system's)."""
        for node in self.nodes:
            node.start()
        if self.system is not None:
            self.system.start()

    def stop(self) -> None:
        for node in self.nodes:
            node.stop()
        if self.system is not None:
            self.system.stop()

    def set_multicast_hook(
        self, hook: Callable[[int, int, float], None]
    ) -> None:
        """Install a ``(message_id, origin, now)`` callback fired before
        the origin's synchronous local delivery -- so recorders know the
        message by the time its first delivery arrives."""
        self._on_multicast = hook

    def multicast(self, origin: int, payload: Any) -> int:
        """Multicast from ``origin``; returns the message id (a system's
        count 1, 2, ... in send order)."""
        system = self.system
        if system is None:
            gossip = self.nodes[origin].gossip
            message_id = gossip.id_source.next_id()
        else:
            self._multicasts += 1
            message_id = self._multicasts
        if self._on_multicast is not None:
            self._on_multicast(message_id, origin, self.sim.now)
        if system is None:
            gossip.multicast_with_id(message_id, payload)
        else:
            system.multicast_with_id(origin, message_id, payload)
        return message_id

    def run_for(self, duration_ms: float) -> None:
        """Advance simulated time by ``duration_ms``."""
        self.sim.run(until=self.sim.now + duration_ms)

    @property
    def alive_nodes(self) -> List[int]:
        return [n for n in range(self.size) if not self.fabric.is_silenced(n)]
