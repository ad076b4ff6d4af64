"""Gossip vs structured-tree vs pull comparison.

Quantifies the trade-off the paper's introduction states qualitatively:
structured multicast wins on payload cost and latency while the network
is stable, and loses deliveries wholesale when it breaks; epidemic
dissemination pays redundancy for resilience; the Payload Scheduler
(here represented by the hybrid strategy) sits in between.

Every row is one :func:`~repro.experiments.runner.run_experiment` call
with the same seed, ``scale.seed + 500``: the tree and pull rows set
:attr:`~repro.experiments.runner.ExperimentSpec.system`, the gossip rows
leave it unset.  So the rows of one table are paired (common random
numbers): they lose the same victims, multicast from the same origins
after the same gaps, and record over the same window after the same
warm-up, on the same fabric and recorder.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.baselines.pull import PullGossipSystem
from repro.baselines.tree import TreeMulticastSystem
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import (
    flat_factory,
    hybrid_factory,
    ranked_factory,
    ttl_factory,
)
from repro.failures.injection import FailurePlan


@dataclass(frozen=True)
class TreeSystem:
    """System factory for the structured tree.  With ``repair_at_ms`` set,
    an oracle failure detector rebuilds the trees at that simulated time
    around every node the fabric has silenced by then."""

    repair_at_ms: Optional[float] = None

    def __call__(self, transport, model, deliver) -> TreeMulticastSystem:
        tree = TreeMulticastSystem(transport, model, deliver)
        if self.repair_at_ms is not None:
            silenced = transport.fabric.is_silenced
            transport.sim.schedule_at(
                self.repair_at_ms,
                lambda: tree.repair([n for n in range(model.size) if silenced(n)]),
            )
        return tree


@dataclass(frozen=True)
class PullSystem:
    """System factory for anti-entropy pull gossip (``PullConfig()``)."""

    def __call__(self, transport, model, deliver) -> PullGossipSystem:
        return PullGossipSystem(transport, model.size, deliver)


def _row(series, model, scale, factory=None, system=None, failure=None) -> Dict:
    """One paired row: the gossip stack driven by ``factory``, or
    ``system`` in its place."""
    spec = scale.spec(factory, seed=scale.seed + 500, failure=failure)
    summary = run_experiment(model, replace(spec, system=system)).summary
    return {
        "series": series,
        "latency_ms": summary.mean_latency_ms,
        "payload_per_msg": summary.payload_per_delivery,
        "delivery_pct": summary.delivery_ratio * 100.0,
        "total_MB": summary.total_bytes / 1e6,
    }


def compare_baselines(scale) -> List[Dict]:
    """Failure-free comparison: who pays what for dissemination."""
    from repro.experiments.figures import build_model

    model = build_model(scale)
    return [
        _row("gossip eager", model, scale, flat_factory(1.0)),
        _row("gossip TTL", model, scale, ttl_factory(3)),
        _row("gossip hybrid", model, scale, hybrid_factory()),
        _row("tree", model, scale, system=TreeSystem()),
        _row("pull", model, scale, system=PullSystem()),
    ]


def compare_under_failures(
    scale,
    failed_fraction: float = 0.2,
    repair_delay_ms: Optional[float] = None,
    target: str = "interior",
) -> List[Dict]:
    """The resilience half of the trade-off.

    Failures hit right before traffic; the tree optionally repairs
    ``repair_delay_ms`` after that instant.  ``target`` selects the
    victims:

    - ``"interior"`` (default): the most central nodes -- which the
      degree-bounded trees systematically recruit as interior nodes, and
      the Ranked strategy recruits as hubs.  This is the adversarial
      case where the structured tree loses whole subtrees while gossip
      (even hub-biased gossip) barely notices, the paper's core
      resilience argument.
    - ``"random"``: uniform victims; trees often survive these well
      because their interior concentrates on few central nodes.
    """
    if target not in ("interior", "random"):
        raise ValueError(f"unknown target {target!r}")
    if repair_delay_ms is not None and repair_delay_ms <= 0:
        raise ValueError(f"repair_delay_ms must be > 0, got {repair_delay_ms}")
    from repro.experiments.figures import build_model

    model = build_model(scale)
    ranked = sorted(range(model.size), key=model.closeness)
    interior = target == "interior"
    plan = FailurePlan(
        fraction=failed_fraction,
        target="best" if interior else "random",
        ranked_nodes=ranked if interior else None,
    )
    if repair_delay_ms is None:
        label, tree = "tree (no repair)", TreeSystem()
    else:
        label = "tree (repaired)"
        tree = TreeSystem(repair_at_ms=scale.warmup_ms + repair_delay_ms)
    return [
        _row("gossip eager", model, scale, flat_factory(1.0), failure=plan),
        _row("gossip ranked", model, scale, ranked_factory(), failure=plan),
        _row(label, model, scale, system=tree, failure=plan),
    ]
