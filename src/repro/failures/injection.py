"""Node-failure plans and their application to a cluster."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Collection, List, Optional, Sequence

from repro.sim.rng import RandomStreams, sample

if TYPE_CHECKING:
    from repro.runtime.cluster import Cluster


@dataclass(frozen=True)
class FailurePlan:
    """What to kill, and how the victims are chosen.

    ``fraction`` of the population is silenced.  ``target`` selects the
    victims: ``"random"`` (uniform, the baseline of Fig. 5b) or
    ``"best"`` (the highest-ranked nodes first -- "precisely those that
    are contributing more to the dissemination effort", the adversarial
    case of Fig. 5b).  ``"best"`` requires ``ranked_nodes``: the
    population ordered best-first.
    """

    fraction: float
    target: str = "random"
    ranked_nodes: Optional[Sequence[int]] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction < 1.0:
            raise ValueError(f"fraction out of range: {self.fraction}")
        if self.target not in ("random", "best"):
            raise ValueError(f"unknown target {self.target!r}")
        if self.target == "best" and self.ranked_nodes is None:
            raise ValueError("target='best' requires ranked_nodes")

    def victim_count(self, size: int) -> int:
        """How many of a ``size``-node population the plan silences:
        ``round(fraction * size)``, refused when that is every node (a
        run with no live sender has nothing to measure)."""
        count = int(round(self.fraction * size))
        if count and count == size:
            raise ValueError(
                f"fraction={self.fraction} silences all {size} nodes of the "
                "population; at least one must stay alive"
            )
        return count


def crash_victims(
    plan: FailurePlan,
    size: int,
    streams: RandomStreams,
    failed: Collection[int] = (),
) -> List[int]:
    """The nodes ``plan`` silences in a ``size``-node population.

    Draws from the ``failures`` stream of ``streams``.  A ``"best"``
    plan skips the earlier victims ``failed`` and fills any shortfall of
    ranked nodes uniformly.  Both kernels call this, so a seed silences
    the same nodes on either.
    """
    count = plan.victim_count(size)
    if count == 0:
        return []
    rng = streams.stream("failures")
    population = range(size)
    if plan.target == "random":
        return sample(rng, population, count)
    skip = set(failed)
    ranked = [n for n in plan.ranked_nodes or () if 0 <= n < size and n not in skip]
    victims = ranked[:count]
    if len(victims) < count:
        # Not enough ranked nodes supplied; fill uniformly.
        skip.update(victims)
        rest = [n for n in population if n not in skip]
        victims += sample(rng, rest, count - len(victims))
    return victims


class FailureInjector:
    """Applies failure plans to a cluster's fabric."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.failed: List[int] = []

    def apply(self, plan: FailurePlan) -> List[int]:
        """Silence the victims; returns their ids."""
        cluster = self.cluster
        victims = crash_victims(
            plan, cluster.model.size, cluster.sim.rng, self.failed
        )
        for node in victims:
            cluster.fabric.silence(node)
        self.failed.extend(victims)
        return victims

    def fail_nodes(self, nodes: Sequence[int]) -> None:
        """Silence an explicit node list."""
        for node in nodes:
            self.cluster.fabric.silence(node)
        self.failed.extend(nodes)

    def revive(self, nodes: Sequence[int], wipe_state: bool = False) -> None:
        """Bring nodes back.  ``wipe_state=False`` models a firewall
        outage ending (state intact); ``wipe_state=True`` models a
        crash-*restart*: the node rejoins with scheduler and gossip
        state rebuilt from scratch (see ``ProtocolNode.restart``)."""
        revived = set(nodes)
        for node in nodes:
            if wipe_state and hasattr(self.cluster, "restart_node"):
                self.cluster.restart_node(node)
            else:
                self.cluster.fabric.unsilence(node)
        self.failed = [n for n in self.failed if n not in revived]
