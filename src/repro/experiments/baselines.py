"""Gossip vs structured-tree vs pull comparison.

Quantifies the trade-off the paper's introduction states qualitatively:
structured multicast wins on payload cost and latency while the network
is stable, and loses deliveries wholesale when it breaks; epidemic
dissemination pays redundancy for resilience; the Payload Scheduler
(here represented by the hybrid strategy) sits in between.

Tree and pull run over the *same* fabric, workload and recorder as the
gossip stack, so every number is comparable.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.baselines.pull import PullConfig, PullGossipSystem
from repro.baselines.tree import TreeConfig, TreeMulticastSystem
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import flat_factory, hybrid_factory, ttl_factory
from repro.failures.injection import FailurePlan
from repro.metrics.analysis import summarize
from repro.metrics.recorder import MetricsRecorder
from repro.network.fabric import FabricConfig, NetworkFabric
from repro.network.transport import ConnectionTransport
from repro.sim.engine import Simulator
from repro.sim.rng import sample
from repro.topology.routing import ClientNetworkModel


def _run_system(
    model: ClientNetworkModel,
    build_system,
    messages: int,
    mean_interval_ms: float,
    seed: int,
    failed_fraction: float = 0.0,
    failed_nodes: Optional[List[int]] = None,
    repair_delay_ms: Optional[float] = None,
):
    """Drive a baseline system with the standard workload shape."""
    sim = Simulator(seed=seed)
    recorder = MetricsRecorder()
    fabric = NetworkFabric(sim, model, FabricConfig())
    fabric.set_observer(recorder)
    transport = ConnectionTransport(fabric)

    def deliver(node: int, message_id: int, payload) -> None:
        recorder.on_app_deliver(node, message_id, sim.now)

    system = build_system(transport, deliver)
    system.on_multicast = recorder.on_multicast
    if hasattr(system, "start"):
        system.start()

    failed: List[int] = []
    if failed_nodes is not None:
        failed = list(failed_nodes)
    elif failed_fraction > 0:
        rng = sim.rng.stream("baseline.failures")
        count = int(round(failed_fraction * model.size))
        failed = sample(rng, range(model.size), count)
    if failed:
        for node in failed:
            fabric.silence(node)
        if repair_delay_ms is not None:
            sim.schedule(repair_delay_ms, system.repair, failed)
    alive = [n for n in range(model.size) if n not in set(failed)]

    workload_rng = sim.rng.stream("baseline.workload")
    sent = 0

    def send_next() -> None:
        nonlocal sent
        origin = alive[sent % len(alive)]
        system.multicast(origin, ("m", sent))
        sent += 1
        if sent < messages:
            sim.schedule(workload_rng.uniform(0, 2 * mean_interval_ms), send_next)

    sim.schedule(workload_rng.uniform(0, 2 * mean_interval_ms), send_next)
    sim.run(until=sim.now + messages * mean_interval_ms + 20_000.0)
    if hasattr(system, "stop"):
        system.stop()
    return summarize(recorder, expected_receivers=len(alive))


def _run_gossip(model, factory, scale, seed_offset=0, failure=None):
    spec = scale.spec(factory, seed=scale.seed + 500 + seed_offset, failure=failure)
    return run_experiment(model, spec).summary


def _row(series: str, summary) -> Dict:
    return {
        "series": series,
        "latency_ms": summary.mean_latency_ms,
        "payload_per_msg": summary.payload_per_delivery,
        "delivery_pct": summary.delivery_ratio * 100.0,
        "total_MB": summary.total_bytes / 1e6,
    }


def compare_baselines(scale, pull_period_ms: float = 500.0) -> List[Dict]:
    """Failure-free comparison: who pays what for dissemination."""
    from repro.experiments.figures import build_model

    model = build_model(scale)
    mean_interval = 500.0
    rows = [
        _row("gossip eager", _run_gossip(model, flat_factory(1.0), scale, 0)),
        _row("gossip TTL", _run_gossip(model, ttl_factory(3), scale, 1)),
        _row("gossip hybrid", _run_gossip(model, hybrid_factory(), scale, 2)),
        _row(
            "tree",
            _run_system(
                model,
                lambda transport, deliver: TreeMulticastSystem(
                    transport, model, deliver, TreeConfig()
                ),
                messages=scale.messages,
                mean_interval_ms=mean_interval,
                seed=scale.seed + 600,
            ),
        ),
        _row(
            "pull",
            _run_system(
                model,
                lambda transport, deliver: PullGossipSystem(
                    transport, model.size, deliver,
                    PullConfig(period_ms=pull_period_ms),
                ),
                messages=scale.messages,
                mean_interval_ms=mean_interval,
                seed=scale.seed + 601,
            ),
        ),
    ]
    return rows


def compare_under_failures(
    scale,
    failed_fraction: float = 0.2,
    repair_delay_ms: Optional[float] = None,
    target: str = "interior",
) -> List[Dict]:
    """The resilience half of the trade-off.

    Failures hit right before traffic; the tree optionally repairs after
    ``repair_delay_ms``.  ``target`` selects the victims:

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
    from repro.experiments.figures import build_model
    from repro.experiments.scenarios import ranked_factory

    model = build_model(scale)
    victims: Optional[List[int]] = None
    if target == "interior":
        count = int(round(failed_fraction * model.size))
        victims = sorted(range(model.size), key=model.closeness)[:count]

    plan = FailurePlan(
        fraction=failed_fraction,
        target="best" if victims is not None else "random",
        ranked_nodes=victims,
    )
    gossip_eager = _run_gossip(
        model, flat_factory(1.0), scale, seed_offset=3, failure=plan
    )
    gossip_ranked = _run_gossip(
        model, ranked_factory(), scale, seed_offset=4, failure=plan
    )
    tree = _run_system(
        model,
        lambda transport, deliver: TreeMulticastSystem(
            transport, model, deliver, TreeConfig()
        ),
        messages=scale.messages,
        mean_interval_ms=500.0,
        seed=scale.seed + 700,
        failed_fraction=failed_fraction,
        failed_nodes=victims,
        repair_delay_ms=repair_delay_ms,
    )
    label = "tree (no repair)" if repair_delay_ms is None else "tree (repaired)"
    return [
        _row("gossip eager", gossip_eager),
        _row("gossip ranked", gossip_ranked),
        _row(label, tree),
    ]
