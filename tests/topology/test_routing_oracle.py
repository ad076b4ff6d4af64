"""Exactness of the routing kernel, held by an oracle.

``heap_shortest_paths`` below is the heap Dijkstra that
:func:`repro.topology.routing.shortest_paths` was until PR 22, kept
verbatim as the reference.  The production kernel is a level-synchronous
BFS, and the client sweep runs it over a pruned *client core*; both must
agree with the reference bit for bit (float ``==``, no tolerance),
because every event-kernel golden trace is downstream of these floats.
"""

from __future__ import annotations

import heapq
import random
from typing import List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.topology.geometry import Point
from repro.topology.graph import NodeKind, RouterTopology
from repro.topology.inet import InetParameters, generate_inet
from repro.topology.routing import (
    ClientNetworkModel,
    _client_core,
    client_routing_sweep,
    shortest_paths,
)

_INF = float("inf")


def heap_shortest_paths(
    graph: RouterTopology, source: int
) -> Tuple[List[int], List[float]]:
    """The reference: Dijkstra on ``(hops, latency)`` keys."""
    node_count = graph.node_count
    hops = [-1] * node_count
    latency = [_INF] * node_count
    done = [False] * node_count
    heap: List[Tuple[int, float, int]] = [(0, 0.0, source)]
    hops[source] = 0
    latency[source] = 0.0
    while heap:
        h, lat, node = heapq.heappop(heap)
        if done[node]:
            continue
        done[node] = True
        for neighbor, link_latency in graph.adjacency[node]:
            if done[neighbor]:
                continue
            candidate = (h + 1, lat + link_latency)
            current = (hops[neighbor], latency[neighbor])
            if hops[neighbor] == -1 or candidate < current:
                hops[neighbor], latency[neighbor] = candidate
                heapq.heappush(heap, (candidate[0], candidate[1], neighbor))
    return hops, latency


# -- property 1: shortest_paths == the heap reference on arbitrary graphs ----

#: Few distinct values, so equal-latency ties and equal-sum paths are common;
#: 0.1 and 0.7 make ``a + b`` depend on rounding, so order of evaluation shows.
_LATENCIES = st.sampled_from([0.1, 0.5, 0.7, 1.0, 1.0, 2.5, 10.0])


@st.composite
def graphs(draw) -> RouterTopology:
    """Random graphs: sparse ones fall into several components (node 0 is
    often isolated), and a chain and a star are grafted on to give long
    level sequences and a high-degree hub."""
    node_count = draw(st.integers(min_value=1, max_value=24))
    graph = RouterTopology()
    for i in range(node_count):
        graph.add_node(NodeKind.STUB, Point(float(i), 0.0))
    pairs = [(a, b) for a in range(node_count) for b in range(a + 1, node_count)]
    if pairs:
        for a, b in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=40)):
            graph.add_edge(a, b, draw(_LATENCIES))
    shape = draw(st.sampled_from(["plain", "chain", "star"]))
    if shape != "plain":
        anchor = draw(st.integers(min_value=0, max_value=node_count - 1))
        for _ in range(draw(st.integers(min_value=1, max_value=6))):
            node = graph.add_node(NodeKind.STUB, Point(0.0, 1.0))
            graph.add_edge(node, anchor, draw(_LATENCIES))
            if shape == "chain":
                anchor = node
    return graph


@settings(max_examples=300, deadline=None)
@given(graph=graphs(), data=st.data())
def test_shortest_paths_equals_heap_dijkstra_bit_for_bit(graph, data):
    source = data.draw(st.integers(min_value=0, max_value=graph.node_count - 1))
    hops, latency = shortest_paths(graph, source)
    ref_hops, ref_latency = heap_shortest_paths(graph, source)
    assert hops == ref_hops
    assert latency == ref_latency  # exact: inf == inf, and no tolerance


def test_source_of_degree_zero():
    graph = RouterTopology()
    for i in range(3):
        graph.add_node(NodeKind.STUB, Point(float(i), 0.0))
    graph.add_edge(1, 2, 0.5)
    assert shortest_paths(graph, 0) == heap_shortest_paths(graph, 0)
    assert shortest_paths(graph, 0) == ([0, -1, -1], [0.0, _INF, _INF])


# -- property 2: the pruned-core sweep == un-pruned per-client routing -------


def _reference_rows(graph, client_ids):
    rows = []
    for source in client_ids:
        hops, latency = heap_shortest_paths(graph, source)
        rows.append(([hops[c] for c in client_ids], [latency[c] for c in client_ids]))
    return rows


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    routers=st.integers(min_value=130, max_value=600),
    clients=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=50),
    multihoming=st.sampled_from([0.0, 0.15, 1.0]),
    chain=st.sampled_from([0.0, 0.5]),
)
def test_core_sweep_equals_unpruned_routing(routers, clients, seed, multihoming, chain):
    params = InetParameters(
        router_count=routers,
        client_count=clients,
        multihoming_probability=multihoming,
        stub_chain_probability=chain,
        target_mean_latency_ms=None,
    )
    topo = generate_inet(params, seed=seed)
    graph = topo.graph
    assert client_routing_sweep(graph, topo.client_ids) == _reference_rows(
        graph, topo.client_ids
    )

    # Interior "clients": routers that other routes pass *through* must
    # survive the pruning, or from_topology would route around them.
    rng = random.Random(seed)
    picked = rng.sample(range(graph.node_count), min(12, graph.node_count))
    model = ClientNetworkModel.from_topology(graph, picked)
    reference = _reference_rows(graph, picked)
    assert model.hops == [hops for hops, _ in reference]
    assert model.latency_ms == [latency for _, latency in reference]


def test_core_strips_only_what_no_client_path_can_cross():
    """A stub chain hanging off the path unravels from its tip; a chain
    with a client at its tip stays whole."""
    graph = RouterTopology()
    s = [graph.add_node(NodeKind.STUB, Point(float(i), 0.0)) for i in range(6)]
    for a, b in ((0, 1), (1, 2), (1, 3), (3, 4), (2, 5)):
        graph.add_edge(s[a], s[b], 1.0)
    c0 = graph.add_node(NodeKind.CLIENT, Point(0.0, 1.0))
    c1 = graph.add_node(NodeKind.CLIENT, Point(5.0, 1.0))
    graph.add_edge(c0, s[0], 1.0)
    graph.add_edge(c1, s[5], 1.0)
    # s3 - s4 dangles off s1; everything else is on the c0 .. c1 path.
    assert len(_client_core(graph, [c0, c1])) == graph.node_count - 2
    with pytest.raises(ValueError, match="distinct"):
        _client_core(graph, [c0, c0])
