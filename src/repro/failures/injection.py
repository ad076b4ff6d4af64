"""Node-failure plans and their application to a cluster."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.sim.rng import sample

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


class FailureInjector:
    """Applies failure plans to a cluster's fabric."""

    def __init__(
        self, cluster: "Cluster", rng: Optional[random.Random] = None
    ) -> None:
        self.cluster = cluster
        self._rng = rng or cluster.sim.rng.stream("failures")
        self.failed: List[int] = []

    def apply(self, plan: FailurePlan) -> List[int]:
        """Silence the victims; returns their ids."""
        population = list(range(self.cluster.size))
        count = int(round(plan.fraction * len(population)))
        if count == 0:
            return []
        if plan.target == "random":
            victims = sample(self._rng, population, count)
        else:
            population_set = set(population)
            already_failed = set(self.failed)
            ranked = [
                n
                for n in plan.ranked_nodes or ()
                if n in population_set and n not in already_failed
            ]
            victims = list(ranked[:count])
            if len(victims) < count:
                # Not enough ranked nodes supplied; fill uniformly.
                victim_set = set(victims) | already_failed
                rest = [n for n in population if n not in victim_set]
                victims += sample(self._rng, rest, count - len(victims))
        for node in victims:
            self.cluster.silence(node)
        self.failed.extend(victims)
        return victims

    def fail_nodes(self, nodes: Sequence[int]) -> None:
        """Silence an explicit node list."""
        for node in nodes:
            self.cluster.silence(node)
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
