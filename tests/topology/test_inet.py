"""Transit-stub generator structural tests (small instances)."""

from __future__ import annotations

import pytest

from repro.topology.graph import NodeKind
from repro.topology.inet import InetParameters, generate_inet
from repro.topology.routing import ClientNetworkModel

SMALL = InetParameters(router_count=200, client_count=20, transit_count=16,
                       transit_extra_degree=6)


def test_counts_match_parameters():
    topo = generate_inet(SMALL, seed=3)
    graph = topo.graph
    assert len(topo.transit_ids) == 16
    assert len(topo.stub_ids) == 200 - 16
    assert len(topo.client_ids) == 20
    assert graph.router_count == 200
    assert graph.node_count == 220


def test_graph_is_connected():
    for seed in (0, 1, 2):
        topo = generate_inet(SMALL, seed=seed)
        assert topo.graph.is_connected()


def test_clients_attach_to_distinct_stubs_at_fixed_latency():
    topo = generate_inet(SMALL, seed=4)
    graph = topo.graph
    attachments = set()
    for client in topo.client_ids:
        assert graph.kinds[client] is NodeKind.CLIENT
        neighbors = graph.adjacency[client]
        assert len(neighbors) == 1
        stub, latency = neighbors[0]
        assert graph.kinds[stub] is NodeKind.STUB
        assert latency == SMALL.client_access_latency_ms
        attachments.add(stub)
    assert len(attachments) == len(topo.client_ids)  # distinct stubs


def test_determinism():
    a = generate_inet(SMALL, seed=9)
    b = generate_inet(SMALL, seed=9)
    assert sorted(a.graph.edges()) == sorted(b.graph.edges())
    assert a.client_ids == b.client_ids


def test_seeds_differ():
    a = generate_inet(SMALL, seed=1)
    b = generate_inet(SMALL, seed=2)
    assert sorted(a.graph.edges()) != sorted(b.graph.edges())


def test_calibration_hits_target_mean():
    from repro.topology.routing import ClientNetworkModel

    params = InetParameters(
        router_count=200, client_count=20, transit_count=16,
        transit_extra_degree=6, target_mean_latency_ms=80.0,
    )
    topo = generate_inet(params, seed=5)
    model = ClientNetworkModel.from_inet(topo)
    assert model.mean_latency() == pytest.approx(80.0, rel=1e-6)


def test_calibration_can_be_disabled():
    params = InetParameters(
        router_count=200, client_count=20, transit_count=16,
        transit_extra_degree=6, target_mean_latency_ms=None,
    )
    topo = generate_inet(params, seed=5)
    assert topo.calibration_factor == 1.0


def test_parameter_validation():
    with pytest.raises(ValueError):
        InetParameters(router_count=10, transit_count=16)
    with pytest.raises(ValueError):
        InetParameters(router_count=20, transit_count=16, client_count=10)
    with pytest.raises(ValueError):
        InetParameters(transit_count=2)
    # A mean pair latency needs a pair; a lone client is fine uncalibrated.
    for clients in (1, 0, -5):
        with pytest.raises(ValueError, match="client_count must be >= 2"):
            InetParameters(client_count=clients)
    with pytest.raises(ValueError, match="client_count must be >= 1"):
        InetParameters(client_count=0, target_mean_latency_ms=None)
    lone = InetParameters(
        router_count=200, client_count=1, target_mean_latency_ms=None
    )
    assert ClientNetworkModel.from_inet(generate_inet(lone, seed=1)).size == 1


def test_too_few_stub_routers_rejected_not_hung():
    """router_count < 2 * transit_count used to spin forever in the
    stub-size partitioner; it must be a validation error instead."""
    with pytest.raises(ValueError, match="stub"):
        InetParameters(router_count=120, client_count=12)
    # The boundary case (one stub per transit) still generates.
    params = InetParameters(router_count=128, client_count=12)
    assert generate_inet(params, seed=3).graph is not None


def test_impossible_latency_target_rejected():
    params = InetParameters(
        router_count=200, client_count=20, transit_count=16,
        target_mean_latency_ms=1.0,  # below the 2 ms access floor
    )
    with pytest.raises(ValueError):
        generate_inet(params, seed=1)
