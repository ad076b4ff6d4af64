"""Connection transport tests."""

from __future__ import annotations

import pytest

from repro.network.fabric import FabricConfig, NetworkFabric
from repro.network.transport import ConnectionTransport
from repro.sim.engine import Simulator
from repro.topology.simple import complete_topology


def make_stack(n=3, jitter=0.0, **transport_kwargs):
    sim = Simulator(seed=2)
    model = complete_topology(n, latency_ms=10.0, jitter_ms=jitter, seed=2)
    fabric = NetworkFabric(sim, model, FabricConfig(bandwidth_bytes_per_ms=None))
    transport = ConnectionTransport(fabric, **transport_kwargs)
    return sim, fabric, transport


def test_endpoint_round_trip():
    sim, _, transport = make_stack()
    a, b = transport.endpoint(0), transport.endpoint(1)
    got = []
    b.set_receiver(lambda src, kind, payload: got.append((src, kind, payload)))
    a.send(1, "HELLO", {"k": 1}, 64)
    sim.run()
    assert got == [(0, "HELLO", {"k": 1})]


def test_connection_transport_preserves_fifo_under_jitter():
    """On a jittered latency matrix, one pair's packets keep their order."""
    sim, _, transport = make_stack(jitter=9.0)
    a = transport.endpoint(0)
    b = transport.endpoint(1)
    got = []
    b.set_receiver(lambda src, kind, payload: got.append(payload))
    for i in range(60):
        a.send(1, "SEQ", i, 10)
    sim.run()
    assert got == list(range(60))


def test_connection_fifo_is_per_directed_pair():
    sim, _, transport = make_stack(jitter=9.0)
    a, b, c = (transport.endpoint(i) for i in range(3))
    got_b, got_c = [], []
    b.set_receiver(lambda src, kind, payload: got_b.append(payload))
    c.set_receiver(lambda src, kind, payload: got_c.append(payload))
    for i in range(30):
        a.send(1, "SEQ", ("b", i), 10)
        a.send(2, "SEQ", ("c", i), 10)
    sim.run()
    assert got_b == [("b", i) for i in range(30)]
    assert got_c == [("c", i) for i in range(30)]


def test_connection_buffer_purges_oldest_in_flight():
    sim, fabric, transport = make_stack(buffer_capacity=2)
    a = transport.endpoint(0)
    b = transport.endpoint(1)
    got = []
    b.set_receiver(lambda src, kind, payload: got.append(payload))
    for i in range(5):  # all in flight simultaneously (latency 10ms)
        a.send(1, "SEQ", i, 10)
    sim.run()
    assert len(got) == 2
    assert got == [3, 4]  # the oldest three were purged
    assert transport.purged_count == 3


def test_connection_buffer_reaps_delivered():
    sim, _, transport = make_stack(buffer_capacity=2)
    a = transport.endpoint(0)
    b = transport.endpoint(1)
    got = []
    b.set_receiver(lambda src, kind, payload: got.append(payload))
    for i in range(2):
        a.send(1, "SEQ", i, 10)
    sim.run()  # both delivered; buffer must be empty again
    for i in range(2, 4):
        a.send(1, "SEQ", i, 10)
    sim.run()
    assert got == [0, 1, 2, 3]
    assert transport.purged_count == 0


def test_connection_transport_rejects_bad_capacity():
    _, fabric, _ = make_stack()
    with pytest.raises(ValueError):
        ConnectionTransport(fabric, buffer_capacity=0)
