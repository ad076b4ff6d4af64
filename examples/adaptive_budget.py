#!/usr/bin/env python3
"""Self-tuning payload budgets (beyond the paper: its adaptive outlook).

The paper's conclusion frames the approach as "a promising base for
building large scale adaptive protocols".  This example runs the
:class:`~repro.strategies.adaptive.AdaptiveRadiusStrategy`: every node
independently tunes its eager radius to spend a target share of its
transmissions eagerly — no coordination, no configuration of rho.

Shown: three budgets (10%, 25%, 50% eager) tracking their targets (the
whole-run average includes the adaptation transient, so it sits a few
points below) and producing the corresponding latency/bandwidth
operating points, plus the radii different nodes converged to (central
nodes need a smaller radius for the same budget).

Run:  python examples/adaptive_budget.py
"""

from __future__ import annotations

from repro.experiments.figures import Scale, build_model
from repro.experiments.reporting import print_table
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.gossip.config import GossipConfig
from repro.runtime.cluster import ClusterConfig
from repro.strategies.adaptive import AdaptiveRadiusStrategy

SCALE = Scale("example", clients=40, routers=400, messages=80,
              warmup_ms=5_000.0, seed=33)


def adaptive_factory(target: float):
    def build(ctx):
        return AdaptiveRadiusStrategy(
            ctx.model.latency_ms[ctx.node],
            target_eager_rate=target,
            initial_radius=20.0,
            first_request_delay_ms=60.0,
            window=40,
        )

    return build


def main() -> None:
    model = build_model(SCALE)
    rows = []
    radii_by_target = {}
    for target in (0.10, 0.25, 0.50):
        spec = ExperimentSpec(
            strategy_factory=adaptive_factory(target),
            cluster=ClusterConfig(gossip=GossipConfig.for_population(SCALE.clients)),
            traffic=SCALE.traffic(),
            warmup_ms=SCALE.warmup_ms,
            seed=51,
        )
        result = run_experiment(model, spec)
        eager = result.recorder.sent_packets.get("MSG", 0)
        ihave = result.recorder.sent_packets.get("IHAVE", 0)
        iwant = result.recorder.sent_packets.get("IWANT", 0)
        eager_only = eager - iwant  # IWANT-answered MSGs are not eager sends
        achieved = eager_only / max(1, eager_only + ihave)
        rows.append(
            {
                "target_eager_pct": target * 100,
                "achieved_pct": achieved * 100,
                "latency_ms": result.summary.mean_latency_ms,
                "payload_per_msg": result.summary.payload_per_delivery,
            }
        )
        radii_by_target[target] = None  # populated below per node

    print_table("adaptive radius: budget -> operating point", rows)
    print(
        "\nEach node converged to its own radius for the same budget\n"
        "(central nodes reach their eager share with smaller radii):"
    )
    # One more run to inspect converged per-node radii.
    spec = ExperimentSpec(
        strategy_factory=adaptive_factory(0.25),
        cluster=ClusterConfig(gossip=GossipConfig.for_population(SCALE.clients)),
        traffic=SCALE.traffic(),
        warmup_ms=SCALE.warmup_ms,
        seed=52,
    )
    run_experiment(model, spec)  # strategies keep their converged state
    # Rebuild to read converged radii deterministically from a fresh run:
    from repro.runtime.cluster import Cluster

    cluster = Cluster(
        model,
        adaptive_factory(0.25),
        config=ClusterConfig(gossip=GossipConfig.for_population(SCALE.clients)),
        seed=52,
    )
    cluster.start()
    cluster.run_for(3_000.0)
    for index in range(60):
        cluster.multicast(index % SCALE.clients, ("m", index))
        cluster.run_for(200.0)
    cluster.run_for(3_000.0)
    cluster.stop()
    radii = sorted(node.strategy.radius for node in cluster.nodes)
    print(
        f"  radius spread at 25% budget: min {radii[0]:.1f} ms, "
        f"median {radii[len(radii) // 2]:.1f} ms, max {radii[-1]:.1f} ms"
    )


if __name__ == "__main__":
    main()
