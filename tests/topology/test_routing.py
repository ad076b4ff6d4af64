"""Routing and ClientNetworkModel tests."""

from __future__ import annotations

import pytest

from repro.experiments.scenarios import BestLowClasses
from repro.topology.geometry import Point
from repro.topology.graph import NodeKind, RouterTopology
from repro.topology.routing import (
    ClientNetworkModel,
    client_routing_sweep,
    mean_client_latency_split,
    shortest_paths,
)
from repro.topology.simple import (
    complete_topology,
    random_metric_topology,
    star_topology,
)


def chain_graph():
    """c0 -1ms- s0 -10ms- s1 -10ms- s2 -1ms- c1, plus a slow shortcut."""
    graph = RouterTopology()
    s = [graph.add_node(NodeKind.STUB, Point(float(i), 0)) for i in range(3)]
    graph.add_edge(s[0], s[1], 10.0)
    graph.add_edge(s[1], s[2], 10.0)
    c0 = graph.add_node(NodeKind.CLIENT, Point(0, 1))
    c1 = graph.add_node(NodeKind.CLIENT, Point(2, 1))
    graph.add_edge(c0, s[0], 1.0)
    graph.add_edge(c1, s[2], 1.0)
    return graph, s, c0, c1


def test_shortest_paths_basic():
    graph, s, c0, c1 = chain_graph()
    hops, latency = shortest_paths(graph, c0)
    assert hops[c1] == 4
    assert latency[c1] == pytest.approx(22.0)
    assert hops[c0] == 0 and latency[c0] == 0.0


def test_hop_count_dominates_latency():
    """A 2-hop path of 100 ms must beat a 3-hop path of 3 ms: routing is
    hop-count-first, like Internet routing over an AS graph."""
    graph = RouterTopology()
    a = graph.add_node(NodeKind.TRANSIT, Point(0, 0))
    b = graph.add_node(NodeKind.TRANSIT, Point(1, 0))
    mid = graph.add_node(NodeKind.TRANSIT, Point(0.5, 1))
    x = graph.add_node(NodeKind.TRANSIT, Point(0.3, -1))
    y = graph.add_node(NodeKind.TRANSIT, Point(0.7, -1))
    graph.add_edge(a, mid, 50.0)
    graph.add_edge(mid, b, 50.0)
    graph.add_edge(a, x, 1.0)
    graph.add_edge(x, y, 1.0)
    graph.add_edge(y, b, 1.0)
    hops, latency = shortest_paths(graph, a)
    assert hops[b] == 2
    assert latency[b] == pytest.approx(100.0)


def test_unreachable_nodes_marked():
    graph = RouterTopology()
    a = graph.add_node(NodeKind.STUB, Point(0, 0))
    b = graph.add_node(NodeKind.STUB, Point(1, 0))
    hops, latency = shortest_paths(graph, a)
    assert hops[b] == -1
    assert latency[b] == float("inf")


def test_mean_client_latency_split():
    graph, s, c0, c1 = chain_graph()
    sweep = client_routing_sweep(graph, [c0, c1])
    access, router = mean_client_latency_split(graph, [c0, c1], sweep)
    assert access == pytest.approx(2.0)
    assert router == pytest.approx(20.0)


def test_model_from_topology():
    graph, s, c0, c1 = chain_graph()
    model = ClientNetworkModel.from_topology(graph, [c0, c1])
    assert model.size == 2
    assert model.latency(0, 1) == pytest.approx(22.0)
    assert model.hop_distance(0, 1) == 4
    assert model.rtt(0, 1) == pytest.approx(44.0)


def test_model_rejects_unreachable_clients():
    graph = RouterTopology()
    c0 = graph.add_node(NodeKind.CLIENT, Point(0, 0))
    c1 = graph.add_node(NodeKind.CLIENT, Point(1, 0))
    s0 = graph.add_node(NodeKind.STUB, Point(0, 1))
    graph.add_edge(c0, s0, 1.0)
    with pytest.raises(ValueError):
        ClientNetworkModel.from_topology(graph, [c0, c1])


def test_uniform_model_and_queries():
    model = ClientNetworkModel.uniform(4, latency_ms=10.0)
    assert model.mean_latency() == pytest.approx(10.0)
    assert model.closeness(0) == pytest.approx(10.0)
    assert model.latency(2, 2) == 0.0


def test_nearest_picks_lowest_latency():
    model = ClientNetworkModel(
        latency_ms=[[0, 5, 9], [5, 0, 2], [9, 2, 0]],
        hops=[[0, 1, 1], [1, 0, 1], [1, 1, 0]],
        positions=[Point(0, 0), Point(1, 0), Point(2, 0)],
    )
    assert model.nearest(0, [1, 2]) == 1
    assert model.nearest(0, [0]) is None


def test_model_validates_shapes():
    with pytest.raises(ValueError):
        ClientNetworkModel([[0.0, 1.0]], [[0, 1]], [Point(0, 0)])


def test_distance_and_latency_rows_agree_on_geometric_model():
    """On a distance-derived model, both rows order peers identically."""
    model = random_metric_topology(8, seed=2)
    latency = model.latency_ms[0]
    distance = [model.distance(0, peer) for peer in range(model.size)]
    peers = list(range(1, 8))
    assert sorted(peers, key=latency.__getitem__) == sorted(
        peers, key=distance.__getitem__
    )


def test_best_nodes_pick_central_nodes():
    model = star_topology(10, center_latency_ms=5.0, edge_latency_ms=50.0)
    assert model.best_nodes(0.1) == frozenset({0})  # the hub


def test_best_nodes_fraction_sizes_set():
    model = complete_topology(10)
    assert len(model.best_nodes(0.3)) == 3
    assert len(model.best_nodes(0.01)) == 1  # never empty


def test_best_nodes_validation():
    model = complete_topology(4)
    with pytest.raises(ValueError):
        model.best_nodes(0.0)
    with pytest.raises(ValueError):
        model.best_nodes(1.5)


def test_best_nodes_cached_per_fraction():
    model = complete_topology(10, latency_ms=30.0, jitter_ms=10.0, seed=2)
    assert model.best_nodes(0.2) is model.best_nodes(0.2)
    assert model.best_nodes(0.5) is not model.best_nodes(0.2)


def test_fresh_models_never_inherit_another_models_best_set():
    # Each model dies when the next is bound, so a cache keyed by the
    # object's address would hand the old best set to a new model.
    classes = BestLowClasses(0.2)
    for seed in range(200):
        model = random_metric_topology(20, seed=seed)
        expected = sorted(sorted(range(20), key=model.closeness)[:4])
        assert classes(model)["best"] == expected, seed
