"""Property-based transport tests."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.network.fabric import FabricConfig, NetworkFabric
from repro.network.transport import ConnectionTransport
from repro.sim.engine import Simulator
from repro.topology.routing import ClientNetworkModel
from repro.topology.simple import complete_topology

send_plan = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),  # (src, dst) pairs
    min_size=1,
    max_size=60,
)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(plan=send_plan, jitter=st.floats(min_value=0.0, max_value=20.0),
       seed=st.integers(0, 1000))
def test_connection_transport_fifo_for_any_plan(plan, jitter, seed):
    """FIFO per directed pair holds for arbitrary interleavings."""
    sim = Simulator(seed=seed)
    model = complete_topology(4, latency_ms=10.0, jitter_ms=jitter, seed=seed)
    fabric = NetworkFabric(sim, model, FabricConfig(bandwidth_bytes_per_ms=None))
    transport = ConnectionTransport(fabric)
    endpoints = [transport.endpoint(node) for node in range(4)]
    received = {node: [] for node in range(4)}
    for node, endpoint in enumerate(endpoints):
        endpoint.set_receiver(
            lambda src, kind, payload, node=node: received[node].append(
                (src, payload)
            )
        )
    sequence_numbers = {}
    for src, dst in plan:
        if src == dst:
            continue
        key = (src, dst)
        sequence_numbers[key] = sequence_numbers.get(key, -1) + 1
        endpoints[src].send(dst, "SEQ", (key, sequence_numbers[key]), 10)
    sim.run()
    # Per (src, dst): sequence numbers arrive in order and completely.
    for node, items in received.items():
        per_pair = {}
        for src, (key, number) in items:
            per_pair.setdefault(key, []).append(number)
        for key, numbers in per_pair.items():
            assert numbers == list(range(len(numbers)))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(plan=send_plan, seed=st.integers(0, 1000))
def test_transport_loses_nothing_without_loss(plan, seed):
    """Below buffer capacity (at most 60 sends per pair against 64) a
    connection purges nothing, so every packet arrives."""
    sim = Simulator(seed=seed)
    model = ClientNetworkModel.uniform(4, latency_ms=5.0)
    fabric = NetworkFabric(sim, model, FabricConfig(bandwidth_bytes_per_ms=None))
    transport = ConnectionTransport(fabric)
    endpoints = [transport.endpoint(node) for node in range(4)]
    received = []
    for node, endpoint in enumerate(endpoints):
        endpoint.set_receiver(lambda src, kind, payload: received.append(payload))
    sent = 0
    for index, (src, dst) in enumerate(plan):
        if src == dst:
            continue
        endpoints[src].send(dst, "X", index, 10)
        sent += 1
    sim.run()
    assert len(received) == sent
    assert transport.purged_count == 0
