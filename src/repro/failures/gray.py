"""Gray failures: nodes and links that misbehave without dying.

The paper's failure model is crash-stop ("silencing them with firewall
rules", section 6.3).  Real deployments are dominated by *gray* failures
-- slow hosts, lossy or asymmetric links, nodes that flap in and out of
reachability -- and by how quickly recovery adapts around them.  This
module applies such impairments through the fabric's gray knobs
(:meth:`~repro.network.fabric.NetworkFabric.set_node_slowdown`,
:meth:`~repro.network.fabric.NetworkFabric.set_link`):

- **slow nodes**: a fraction of the population gets its uplink
  bandwidth divided by a factor and a fixed service delay added to every
  packet it sends or receives;
- **lossy links**: a fraction of directed links gets extra, independent
  loss and optional extra latency (directed sampling makes the
  impairment asymmetric by default);
- **flappy nodes**: a fraction of nodes cycles between reachable and
  silenced with a deterministic duty cycle and a seeded phase offset.

All selections draw from the ``failures.gray`` stream, so a given seed
always impairs the same nodes/links, and enabling a plan never perturbs
any other component's randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.network.fabric import LinkProfile
from repro.sim.rng import RandomStreams, sample

if TYPE_CHECKING:
    from repro.runtime.cluster import Cluster


@dataclass(frozen=True)
class GrayFailurePlan:
    """Which gray impairments to apply, and how severe.

    All fractions default to 0, so the empty plan is a no-op; the fault
    model is strictly opt-in.
    """

    #: Slow-node profile.
    slow_fraction: float = 0.0
    slow_bandwidth_factor: float = 4.0
    slow_service_delay_ms: float = 20.0
    #: Lossy-link profile (directed links; asymmetric unless the
    #: reverse direction happens to be sampled too).
    lossy_link_fraction: float = 0.0
    link_loss_probability: float = 0.05
    link_extra_latency_ms: float = 0.0
    link_duplicate_probability: float = 0.0
    #: Flappy-node profile: ``up_ms`` reachable, then ``down_ms``
    #: silenced, repeating with a seeded phase offset per node.
    flappy_fraction: float = 0.0
    flap_up_ms: float = 2_000.0
    flap_down_ms: float = 500.0

    def __post_init__(self) -> None:
        for name in ("slow_fraction", "lossy_link_fraction", "flappy_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of range: {value}")
        if self.slow_bandwidth_factor < 1.0:
            raise ValueError("slow_bandwidth_factor must be >= 1")
        if self.slow_service_delay_ms < 0:
            raise ValueError("slow_service_delay_ms must be >= 0")
        if not 0.0 <= self.link_loss_probability <= 1.0:
            raise ValueError(
                f"link_loss_probability out of range: {self.link_loss_probability}"
            )
        if self.flap_up_ms <= 0 or self.flap_down_ms <= 0:
            raise ValueError("flap periods must be positive")


@dataclass
class AppliedGrayFailures:
    """What a plan actually impaired (diagnostics and assertions)."""

    slow_nodes: List[int] = field(default_factory=list)
    lossy_links: List[Tuple[int, int]] = field(default_factory=list)
    flappy_nodes: List[int] = field(default_factory=list)
    #: Each flappy node's first up period, aligned with ``flappy_nodes``.
    flap_phases_ms: List[float] = field(default_factory=list)


def gray_targets(
    plan: GrayFailurePlan, size: int, streams: RandomStreams
) -> AppliedGrayFailures:
    """The nodes and links ``plan`` impairs in a ``size``-node population.

    Draws from the ``failures.gray`` stream of ``streams``: slow nodes,
    then lossy directed links, then flappy nodes (never slow ones) and
    their phase offsets.  Both kernels call this, so a seed impairs the
    same targets on either.
    """
    rng = streams.stream("failures.gray")
    population = range(size)
    applied = AppliedGrayFailures()
    slow_count = int(round(plan.slow_fraction * size))
    if slow_count:
        applied.slow_nodes = sorted(sample(rng, population, slow_count))
    if plan.lossy_link_fraction > 0.0:
        links = [(a, b) for a in population for b in population if a != b]
        count = int(round(plan.lossy_link_fraction * len(links)))
        if count:
            applied.lossy_links = sorted(sample(rng, links, count))
    flappy_count = int(round(plan.flappy_fraction * size))
    if flappy_count:
        slow = set(applied.slow_nodes)
        candidates = [p for p in population if p not in slow]
        flappy_count = min(flappy_count, len(candidates))
        applied.flappy_nodes = sorted(sample(rng, candidates, flappy_count))
        applied.flap_phases_ms = [
            rng.uniform(0.0, plan.flap_up_ms) for _ in applied.flappy_nodes
        ]
    return applied


class GrayFailureInjector:
    """Applies :class:`GrayFailurePlan` to a cluster's fabric."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.applied: Optional[AppliedGrayFailures] = None
        self._flap_state: Dict[int, bool] = {}

    def apply(self, plan: GrayFailurePlan) -> AppliedGrayFailures:
        fabric = self.cluster.fabric
        applied = gray_targets(plan, self.cluster.size, self.cluster.sim.rng)
        for node in applied.slow_nodes:
            fabric.set_node_slowdown(
                node,
                bandwidth_factor=plan.slow_bandwidth_factor,
                service_delay_ms=plan.slow_service_delay_ms,
            )
        if applied.lossy_links:
            profile = LinkProfile(
                loss_probability=plan.link_loss_probability,
                extra_latency_ms=plan.link_extra_latency_ms,
                duplicate_probability=plan.link_duplicate_probability,
            )
            for src, dst in applied.lossy_links:
                fabric.set_link(src, dst, profile)
        for node, phase in zip(applied.flappy_nodes, applied.flap_phases_ms):
            self._flap_state[node] = True  # currently up
            self.cluster.sim.schedule(phase, self._flap, node, plan)
        self.applied = applied
        return applied

    def clear(self) -> None:
        """Undo every impairment (flapping nodes are left reachable)."""
        fabric = self.cluster.fabric
        fabric.clear_gray()
        for node, up in self._flap_state.items():
            if not up:
                fabric.unsilence(node)
        self._flap_state.clear()

    def _flap(self, node: int, plan: GrayFailurePlan) -> None:
        if node not in self._flap_state:  # cleared while a flap was pending
            return
        fabric = self.cluster.fabric
        if self._flap_state[node]:
            fabric.silence(node)
            self._flap_state[node] = False
            self.cluster.sim.schedule(plan.flap_down_ms, self._flap, node, plan)
        else:
            fabric.unsilence(node)
            self._flap_state[node] = True
            self.cluster.sim.schedule(plan.flap_up_ms, self._flap, node, plan)
