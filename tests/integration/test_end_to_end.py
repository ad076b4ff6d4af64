"""Whole-stack integration tests."""

from __future__ import annotations

from repro.failures.gray import GrayFailureInjector, GrayFailurePlan
from repro.gossip.config import GossipConfig
from repro.network.fabric import FabricConfig
from repro.strategies.flat import FlatStrategy, PureEagerStrategy, PureLazyStrategy
from repro.topology.simple import complete_topology, star_topology
from tests.conftest import build_cluster


def run_one_multicast(model, factory, seed=11, warm=3_000.0, drain=6_000.0, **cfg):
    cluster, recorder = build_cluster(model, factory, seed=seed, **cfg)
    cluster.start()
    cluster.run_for(warm)
    mid = cluster.multicast(0, "payload")
    cluster.run_for(drain)
    cluster.stop()
    return cluster, recorder, mid


def test_eager_delivers_to_all_with_duplicates():
    model = complete_topology(20, latency_ms=20.0, jitter_ms=5.0, seed=1)
    cluster, recorder, mid = run_one_multicast(model, lambda ctx: PureEagerStrategy())
    assert len(recorder.deliveries[mid]) == 20
    # Eager push wastes bandwidth: many more payload transmissions than
    # deliveries (the fanout effect the paper opens with).
    assert recorder.payload_transmissions > 2 * 20


def test_lazy_delivers_to_all_with_minimal_payloads():
    model = complete_topology(20, latency_ms=20.0, jitter_ms=5.0, seed=1)
    cluster, recorder, mid = run_one_multicast(model, lambda ctx: PureLazyStrategy())
    assert len(recorder.deliveries[mid]) == 20
    # Lazy push: each node fetches the payload essentially once.
    assert recorder.payload_transmissions <= 20 * 1.25


def test_lazy_latency_exceeds_eager_latency():
    model = complete_topology(20, latency_ms=20.0, jitter_ms=2.0, seed=2)

    def mean_latency(factory):
        _, recorder, mid = run_one_multicast(model, factory)
        origin_time = recorder.multicasts[mid][1]
        times = [t - origin_time for n, t in recorder.deliveries[mid].items() if n != 0]
        return sum(times) / len(times)

    eager = mean_latency(lambda ctx: PureEagerStrategy())
    lazy = mean_latency(lambda ctx: PureLazyStrategy())
    # Each lazy hop adds a round trip: IHAVE + IWANT + MSG.
    assert lazy > 1.8 * eager


def test_mixed_flat_interpolates_payload_cost():
    model = complete_topology(20, latency_ms=20.0, seed=3)
    _, recorder, mid = run_one_multicast(
        model, lambda ctx: FlatStrategy(0.5, ctx.rng)
    )
    per_delivery = recorder.payload_transmissions / len(recorder.deliveries[mid])
    assert 1.5 < per_delivery < 5.0  # between lazy (1) and eager (fanout)


def test_packet_loss_recovered_by_lazy_retries():
    """With 20% omission, lazy retries via other advertised sources must
    still deliver everywhere -- the resilience argument for keeping
    redundant IHAVEs."""
    model = complete_topology(15, latency_ms=10.0, seed=4)
    cluster, recorder = build_cluster(
        model,
        lambda ctx: PureLazyStrategy(retry_period_ms=200.0),
        seed=11,
        fabric=FabricConfig(bandwidth_bytes_per_ms=None),
        gossip=GossipConfig(fanout=6, rounds=4),
    )
    GrayFailureInjector(cluster).apply(
        GrayFailurePlan(lossy_link_fraction=1.0, link_loss_probability=0.2)
    )
    cluster.start()
    cluster.run_for(3_000.0)
    mid = cluster.multicast(0, "payload")
    cluster.run_for(20_000.0)
    cluster.stop()
    assert recorder.dropped_packets["link-loss"] > 0
    assert len(recorder.deliveries[mid]) == 15


def test_scheduler_is_transparent_to_gossip_layer():
    """The paper's architectural claim: an always-eager scheduler must
    reproduce plain eager push gossip exactly (same deliveries, same
    payload count) on a deterministic network."""
    model = complete_topology(15, latency_ms=10.0)

    def run(factory):
        cluster, recorder, mid = run_one_multicast(model, factory, seed=21)
        return (
            sorted(recorder.deliveries[mid]),
            recorder.payload_transmissions,
        )

    eager_nodes, eager_payloads = run(lambda ctx: PureEagerStrategy())
    flat1_nodes, flat1_payloads = run(lambda ctx: FlatStrategy(1.0, ctx.rng))
    assert eager_nodes == flat1_nodes
    assert eager_payloads == flat1_payloads


def test_hub_carries_traffic_on_star_with_ranked():
    """On a star topology a Ranked strategy with the hub as best node
    concentrates payload through the hub."""
    from repro.strategies.ranked import RankedStrategy

    model = star_topology(15, center_latency_ms=5.0, edge_latency_ms=60.0)
    cluster, recorder, mid = run_one_multicast(
        model, lambda ctx: RankedStrategy(ctx.node, frozenset({0}))
    )
    assert len(recorder.deliveries[mid]) == 15
    hub_sent = recorder.node_payload_sent.get(0, 0)
    spoke_sent = max(
        recorder.node_payload_sent.get(n, 0) for n in range(1, 15)
    )
    assert hub_sent >= spoke_sent


def test_multiple_concurrent_multicasts_do_not_interfere():
    model = complete_topology(12, latency_ms=15.0, seed=5)
    cluster, recorder = build_cluster(model, lambda ctx: PureLazyStrategy())
    cluster.start()
    cluster.run_for(3_000.0)
    mids = [cluster.multicast(origin, f"m{origin}") for origin in range(6)]
    cluster.run_for(8_000.0)
    cluster.stop()
    for mid in mids:
        assert len(recorder.deliveries[mid]) == 12
