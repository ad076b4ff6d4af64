"""NeEM overlay shuffle tests.

The overlay agents are wired directly to a fabric (no full node stack)
so the shuffle protocol can be observed in isolation.
"""

from __future__ import annotations

import pytest

from repro.membership.neem_overlay import NeemOverlay, OverlayConfig
from repro.network.fabric import FabricConfig, NetworkFabric
from repro.network.transport import ConnectionTransport
from repro.sim.engine import Simulator
from repro.topology.routing import ClientNetworkModel


def build_overlay_network(n=20, view_size=5, bootstrap_degree=3, seed=3):
    sim = Simulator(seed=seed)
    model = ClientNetworkModel.uniform(n, latency_ms=5.0)
    fabric = NetworkFabric(sim, model, FabricConfig(bandwidth_bytes_per_ms=None))
    transport = ConnectionTransport(fabric)
    config = OverlayConfig(view_size=view_size, shuffle_size=3)
    rng = sim.rng.stream("bootstrap")
    agents = []
    for node in range(n):
        endpoint = transport.endpoint(node)
        others = [p for p in range(n) if p != node]
        agent = NeemOverlay(
            sim,
            node,
            endpoint.send,
            config=config,
            bootstrap=rng.sample(others, bootstrap_degree),
        )
        endpoint.set_receiver(agent.handle)
        agents.append(agent)
    return sim, agents


def test_views_fill_up_via_shuffling():
    sim, agents = build_overlay_network()
    for agent in agents:
        agent.start()
    sim.run(until=30_000.0)
    for agent in agents:
        agent.stop()
    # Starting from 3 bootstrap peers, shuffling must grow views to
    # (near) capacity.
    assert all(len(agent.view) >= 4 for agent in agents)
    assert sum(agent.shuffles_sent for agent in agents) > 0
    assert sum(agent.shuffles_answered for agent in agents) > 0


def test_views_keep_invariants_under_shuffling():
    sim, agents = build_overlay_network()
    for agent in agents:
        agent.start()
    sim.run(until=20_000.0)
    for agent in agents:
        peers = agent.view.peers()
        assert agent.node not in peers
        assert len(peers) == len(set(peers))
        assert len(peers) <= agent.config.view_size


def test_shuffling_mixes_views():
    sim, agents = build_overlay_network(n=30, view_size=5, bootstrap_degree=3)
    before = {a.node: set(a.view.peers()) for a in agents}
    for agent in agents:
        agent.start()
    sim.run(until=60_000.0)
    changed = sum(1 for a in agents if set(a.view.peers()) != before[a.node])
    assert changed >= len(agents) * 0.8


def test_overlay_stays_connected_as_directed_union():
    sim, agents = build_overlay_network(n=25)
    for agent in agents:
        agent.start()
    sim.run(until=30_000.0)
    # Undirected reachability over the union of views.
    adjacency = {a.node: set(a.view.peers()) for a in agents}
    seen = {0}
    stack = [0]
    while stack:
        node = stack.pop()
        neighbors = set(adjacency[node])
        neighbors |= {m for m, view in adjacency.items() if node in view}
        for peer in neighbors:
            if peer not in seen:
                seen.add(peer)
                stack.append(peer)
    assert len(seen) == 25


def test_sample_returns_view_subset():
    sim, agents = build_overlay_network()
    agent = agents[0]
    sample = agent.sample(2)
    assert set(sample) <= set(agent.view.peers())


def test_config_validation():
    with pytest.raises(ValueError):
        OverlayConfig(view_size=0)
    with pytest.raises(ValueError):
        OverlayConfig(view_size=5, shuffle_size=6)
    with pytest.raises(ValueError):
        OverlayConfig(shuffle_period_ms=0)
