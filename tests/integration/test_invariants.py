"""Whole-stack invariants, property-tested over random configurations.

Hypothesis drives population size, fanout, strategy choice and seeds;
the invariants must hold for every combination:

- **no duplicate application deliveries** at any node;
- **origin delivers its own message immediately**;
- **causality**: no delivery before its multicast, and no remote
  delivery faster than the direct network latency from the origin;
- **payload conservation** (lossless network): payload transmissions
  received never exceed transmissions sent.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.gossip.config import GossipConfig
from repro.metrics.recorder import MetricsRecorder
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.strategies.flat import FlatStrategy
from repro.strategies.radius import RadiusStrategy
from repro.strategies.ttl import TtlStrategy
from repro.topology.simple import complete_topology

strategy_kinds = st.sampled_from(["flat", "ttl", "radius"])


def make_factory(kind: str, parameter: float):
    if kind == "flat":
        return lambda ctx: FlatStrategy(parameter, ctx.rng)
    if kind == "ttl":
        return lambda ctx: TtlStrategy(max(0, int(parameter * 5)))
    return lambda ctx: RadiusStrategy(
        ctx.model.latency_ms[ctx.node],
        radius=10.0 + parameter * 40.0,
        first_request_delay_ms=parameter * 100.0,
    )


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.integers(min_value=4, max_value=16),
    fanout=st.integers(min_value=2, max_value=6),
    kind=strategy_kinds,
    parameter=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_stack_invariants(n, fanout, kind, parameter, seed):
    model = complete_topology(n, latency_ms=20.0, jitter_ms=5.0, seed=seed)
    recorder = MetricsRecorder()
    delivery_counts = Counter()
    cluster = Cluster(
        model,
        make_factory(kind, parameter),
        config=ClusterConfig(gossip=GossipConfig(fanout=fanout, rounds=4)),
        seed=seed,
    )
    cluster.fabric.set_observer(recorder)
    cluster.set_multicast_hook(recorder.on_multicast)

    def deliver(node, message_id, payload):
        delivery_counts[(node, message_id)] += 1
        recorder.on_app_deliver(node, message_id, cluster.sim.now)

    cluster.set_deliver(deliver)
    cluster.start()
    cluster.run_for(2_000.0)
    origin = seed % n
    message_id = cluster.multicast(origin, "payload")
    sent_at = recorder.multicasts[message_id][1]
    cluster.run_for(6_000.0)
    cluster.stop()

    # No duplicate deliveries, ever.
    assert all(count == 1 for count in delivery_counts.values())

    per_node = recorder.deliveries[message_id]
    # Origin delivered synchronously.
    assert per_node[origin] == sent_at
    # Causality + network floor.
    for node, delivered_at in per_node.items():
        assert delivered_at >= sent_at
        if node != origin:
            assert delivered_at >= sent_at + model.latency(origin, node) * 0.999
    # Payload conservation on a lossless network.
    assert (
        recorder.delivered_packets["MSG"] <= recorder.sent_packets["MSG"]
    )
