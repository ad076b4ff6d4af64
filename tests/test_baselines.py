"""Structured-tree and pull baselines tests."""

from __future__ import annotations

import pytest

from repro.baselines.pull import PullConfig, PullGossipSystem
from repro.baselines.tree import TreeConfig, TreeMulticastSystem
from repro.experiments.baselines import TreeSystem
from repro.network.fabric import FabricConfig, NetworkFabric
from repro.network.transport import ConnectionTransport
from repro.runtime.cluster import Cluster
from repro.sim.engine import Simulator
from repro.topology.simple import random_metric_topology


def make_stack(n=16, seed=1):
    sim = Simulator(seed=seed)
    model = random_metric_topology(n, mean_latency_ms=40.0, seed=seed)
    # Infinite uplink bandwidth so tree latencies are pure path latency.
    fabric = NetworkFabric(sim, model, FabricConfig(bandwidth_bytes_per_ms=None))
    transport = ConnectionTransport(fabric)
    deliveries = {}

    def deliver(node, message_id, payload):
        deliveries.setdefault(message_id, {})[node] = sim.now

    return sim, model, fabric, transport, deliver, deliveries


# -- tree -----------------------------------------------------------------


def test_tree_delivers_exactly_once_everywhere():
    sim, model, fabric, transport, deliver, deliveries = make_stack()
    system = TreeMulticastSystem(transport, model, deliver)
    mid = 1
    system.multicast_with_id(0, mid, "x")
    sim.run()
    assert len(deliveries[mid]) == 16
    # Exactly-once: payload transmissions = n - 1.
    assert fabric.nics[0].packets_sent <= TreeConfig().max_degree


def test_tree_respects_degree_cap():
    sim, model, _, transport, deliver, _ = make_stack(n=30)
    system = TreeMulticastSystem(
        transport, model, deliver, TreeConfig(max_degree=4)
    )
    children = system._tree_for(0)
    assert all(len(c) <= 4 for c in children)
    # Depth must exceed 1 (no star) once the cap binds.
    assert any(children[c] for c in children[0])


def test_uncapped_tree_degenerates_to_star_on_metric_space():
    sim, model, _, transport, deliver, _ = make_stack(n=12)
    system = TreeMulticastSystem(
        transport, model, deliver, TreeConfig(max_degree=None)
    )
    children = system._tree_for(3)
    assert len(children[3]) == 11


def test_tree_latency_is_root_path_latency():
    sim, model, _, transport, deliver, deliveries = make_stack(n=10)
    system = TreeMulticastSystem(transport, model, deliver, TreeConfig(max_degree=3))
    mid = 1
    system.multicast_with_id(0, mid, "x")
    sim.run()
    children = system._tree_for(0)

    def path_latency(target, node=0, acc=0.0):
        if node == target:
            return acc
        for child in children[node]:
            result = path_latency(target, child, acc + model.latency(node, child))
            if result is not None:
                return result
        return None

    for node, at in deliveries[mid].items():
        assert at == pytest.approx(path_latency(node), abs=1e-6)


def test_tree_loses_subtrees_on_interior_failure():
    sim, model, fabric, transport, deliver, deliveries = make_stack(n=20)
    system = TreeMulticastSystem(transport, model, deliver, TreeConfig(max_degree=4))
    children = system._tree_for(0)
    interior = next(c for c in children[0] if children[c])
    fabric.silence(interior)
    mid = 1
    system.multicast_with_id(0, mid, "x")
    sim.run()
    lost = {interior}

    def collect(node):
        for child in children[node]:
            lost.add(child)
            collect(child)

    collect(interior)
    delivered = set(deliveries[mid])
    assert delivered.isdisjoint(lost - {0})
    assert delivered == set(range(20)) - lost


def test_tree_repair_rebuilds_around_failures():
    sim, model, fabric, transport, deliver, deliveries = make_stack(n=20)
    system = TreeMulticastSystem(transport, model, deliver, TreeConfig(max_degree=4))
    children = system._tree_for(0)
    interior = next(c for c in children[0] if children[c])
    fabric.silence(interior)
    system.repair([interior])
    assert system.repairs == 1
    mid = 1
    system.multicast_with_id(0, mid, "x")
    sim.run()
    assert set(deliveries[mid]) == set(range(20)) - {interior}


def test_tree_multicast_hook_fires_before_delivery():
    model = random_metric_topology(16, mean_latency_ms=40.0, seed=1)
    cluster = Cluster(model, None, system=TreeSystem())
    events = []
    cluster.set_multicast_hook(
        lambda mid, origin, now: events.append(("multicast", mid, origin))
    )
    cluster.set_deliver(
        lambda node, mid, payload: events.append(("deliver", mid, node))
    )
    mid = cluster.multicast(4, "x")
    assert events == [("multicast", mid, 4), ("deliver", mid, 4)]
    assert cluster.nodes == []


def test_tree_config_validation():
    with pytest.raises(ValueError):
        TreeConfig(payload_bytes=0)
    with pytest.raises(ValueError):
        TreeConfig(max_degree=0)


# -- pull ------------------------------------------------------------------


def test_pull_spreads_to_everyone_eventually():
    sim, model, _, transport, deliver, deliveries = make_stack(n=12)
    system = PullGossipSystem(
        transport, 12, deliver, PullConfig(period_ms=100.0, jitter_ms=10.0)
    )
    system.start()
    mid = 1
    system.multicast_with_id(0, mid, "x")
    sim.run(until=20_000.0)
    system.stop()
    assert len(deliveries[mid]) == 12


def test_pull_latency_scales_with_period():
    def mean_latency(period):
        sim, model, _, transport, deliver, deliveries = make_stack(n=12, seed=5)
        system = PullGossipSystem(
            transport, 12, deliver, PullConfig(period_ms=period, jitter_ms=0.0)
        )
        system.start()
        mid = 1
        system.multicast_with_id(0, mid, "x")
        start = sim.now
        sim.run(until=200_000.0)
        system.stop()
        times = [t - start for n, t in deliveries[mid].items() if n != 0]
        return sum(times) / len(times)

    fast = mean_latency(100.0)
    slow = mean_latency(1000.0)
    assert slow > 3 * fast


def test_pull_each_payload_received_once_per_node():
    sim, model, fabric, transport, deliver, deliveries = make_stack(n=10)
    from repro.metrics.recorder import MetricsRecorder

    recorder = MetricsRecorder()
    fabric.set_observer(recorder)
    system = PullGossipSystem(
        transport, 10, deliver, PullConfig(period_ms=100.0)
    )
    system.start()
    mid = 1
    system.multicast_with_id(0, mid, "x")
    sim.run(until=30_000.0)
    system.stop()
    # Anti-entropy responders only send what the requester lacks, so
    # payload transmissions stay near one per delivery (races aside).
    assert recorder.sent_packets["PULL_DATA"] <= 9 * 1.5


def test_pull_digest_window_bounds_digest_size():
    sim, model, _, transport, deliver, _ = make_stack(n=6)
    system = PullGossipSystem(
        transport, 6, deliver, PullConfig(period_ms=100.0, digest_window=3)
    )
    for i in range(10):
        system.multicast_with_id(0, i + 1, f"m{i}")
    assert len(system.nodes[0].recent) == 3


def test_pull_config_validation():
    with pytest.raises(ValueError):
        PullConfig(period_ms=0)
    with pytest.raises(ValueError):
        PullConfig(digest_window=0)
