"""Cluster assembly and operation tests."""

from __future__ import annotations

from repro.gossip.config import GossipConfig
from repro.membership.neem_overlay import NeemOverlay
from repro.membership.oracle import OraclePeerSampler
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.strategies.flat import PureEagerStrategy, PureLazyStrategy
from repro.topology.simple import complete_topology
from tests.conftest import build_cluster


def test_every_node_gets_full_stack():
    model = complete_topology(8)
    cluster, _ = build_cluster(model, lambda ctx: PureEagerStrategy())
    assert cluster.size == 8
    for node in cluster.nodes:
        assert isinstance(node.overlay, NeemOverlay)
        assert node.gossip is not None and node.scheduler is not None


def test_oracle_sampler_mode():
    model = complete_topology(8)
    config = ClusterConfig(overlay=None, gossip=GossipConfig(fanout=3, rounds=3))
    cluster = Cluster(model, lambda ctx: PureEagerStrategy(), config=config)
    for node in cluster.nodes:
        assert node.overlay is None
        assert isinstance(node.peer_sampler, OraclePeerSampler)


def test_multicast_reaches_all_nodes():
    model = complete_topology(12)
    cluster, recorder = build_cluster(model, lambda ctx: PureEagerStrategy())
    cluster.start()
    cluster.run_for(3_000.0)
    mid = cluster.multicast(0, "hello")
    cluster.run_for(3_000.0)
    cluster.stop()
    assert len(recorder.deliveries[mid]) == 12


def test_multicast_hook_fires_before_local_delivery():
    model = complete_topology(6)
    cluster, recorder = build_cluster(model, lambda ctx: PureEagerStrategy())
    mid = cluster.multicast(2, "x")
    # Origin's own (synchronous) delivery must have been recorded.
    assert 2 in recorder.deliveries[mid]


def test_strategy_factory_receives_context():
    model = complete_topology(5)
    seen = []

    def factory(ctx):
        seen.append((ctx.node, ctx.model is model, ctx.rng is not None))
        return PureLazyStrategy()

    build_cluster(model, factory)
    assert [node for node, _, _ in seen] == list(range(5))
    assert all(has_model and has_rng for _, has_model, has_rng in seen)


def test_silence_and_alive_nodes():
    model = complete_topology(5)
    cluster, _ = build_cluster(model, lambda ctx: PureEagerStrategy())
    cluster.fabric.silence(3)
    assert cluster.alive_nodes == [0, 1, 2, 4]


def test_node_bandwidth_overrides():
    model = complete_topology(4)
    cluster = Cluster(
        model,
        lambda ctx: PureEagerStrategy(),
        config=ClusterConfig(gossip=GossipConfig(fanout=2, rounds=2)),
        node_bandwidth={0: None, 1: 10.0},
    )
    assert cluster.fabric.nics[0].bandwidth_bytes_per_ms is None
    assert cluster.fabric.nics[1].bandwidth_bytes_per_ms == 10.0
    assert (
        cluster.fabric.nics[2].bandwidth_bytes_per_ms
        == cluster.config.fabric.bandwidth_bytes_per_ms
    )


def test_cluster_runs_are_deterministic():
    """Same seed => identical delivery timeline, bit for bit."""
    from repro.strategies.flat import FlatStrategy

    def run_once():
        model = complete_topology(10, latency_ms=15.0, jitter_ms=5.0, seed=3)
        cluster, recorder = build_cluster(
            model, lambda ctx: FlatStrategy(0.4, ctx.rng), seed=9
        )
        cluster.start()
        cluster.run_for(2_000.0)
        for index in range(4):
            cluster.multicast(index, ("m", index))
            cluster.run_for(300.0)
        cluster.run_for(4_000.0)
        cluster.stop()
        return {
            mid: sorted(per.items()) for mid, per in recorder.deliveries.items()
        }, dict(recorder.sent_packets)

    assert run_once() == run_once()
