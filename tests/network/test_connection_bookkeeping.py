"""Differential property test for the connection transport's bookkeeping.

``ConnectionTransport`` keeps one receipt list per directed connection,
holding exactly the in-flight receipts: a delivered one leaves at
delivery (so does one dropped on arrival because an end was silenced).
That must be observationally identical to the bookkeeping it replaced
-- a tuple-keyed dict of in-flight sets and a full rescan of the set on
every send -- of which this file carries a copy (less the FIFO floor it
also kept: the fabric now delivers each pair in order by
construction).  Hypothesis drives
both through the same interleavings of send / ``run(until=...)`` /
silence / lossy links, under per-node bandwidth overrides, for small
capacities of the drop-oldest buffer, and after every step compares:

- the full event log: observer ``on_send`` / ``on_deliver`` / ``on_drop``
  calls and receiver up-calls, with exact timestamps;
- ``purged_count``, the clock and the number of queued events;
- the live in-flight set per pair, in insertion order -- what a purge
  decision sees -- and that no list holds a receipt that has fired.

Two fixed interleavings per capacity fill a buffer: right
after receipts on it were dropped on arrival at a silenced node, and
with receipts to a node that has no endpoint, which only the send side
reaps.

With no floor anywhere, the run must still be FIFO: each connection's
packets are delivered in send order, at non-decreasing times.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.fabric import (
    FabricConfig,
    LinkProfile,
    NetworkFabric,
    SendReceipt,
)
from repro.network.message import Packet
from repro.network.transport import ConnectionTransport
from repro.sim.engine import Simulator
from repro.topology.simple import complete_topology

NODES = 3


# -- the legacy bookkeeping (full-scan reap) ----------------------------------------


class _LegacyConnectionTransport(ConnectionTransport):
    def __init__(self, fabric: NetworkFabric, buffer_capacity: int = 64) -> None:
        super().__init__(fabric, buffer_capacity)
        self._in_flight: Dict[Tuple[int, int], Dict[int, SendReceipt]] = {}

    def _submit_many(self, packets) -> None:
        # One packet at a time, as before bursts.
        for packet in packets:
            self._submit(packet)

    def _submit(self, packet: Packet) -> None:
        pair = (packet.src, packet.dst)
        in_flight = self._in_flight.setdefault(pair, {})
        self._reap_delivered(in_flight)

        if len(in_flight) >= self.buffer_capacity:
            oldest = min(in_flight.values(), key=lambda r: r.deliver_at)
            receipt = in_flight.pop(oldest.packet.packet_id)
            self._fabric.abort(receipt, reason="purged")
            self.purged_count += 1

        receipt = self._fabric.send(packet)
        if receipt is None:
            return
        in_flight[packet.packet_id] = receipt

    @staticmethod
    def _reap_delivered(in_flight: Dict[int, SendReceipt]) -> None:
        delivered = [
            pid for pid, receipt in in_flight.items() if not receipt.handle.pending
        ]
        for pid in delivered:
            del in_flight[pid]

    def live(self) -> Dict[Tuple[int, int], list]:
        return {
            pair: live
            for pair, in_flight in self._in_flight.items()
            if (live := _live_payloads(in_flight.values()))
        }


def _live_payloads(receipts) -> list:
    return [r.packet.payload for r in receipts if r.handle.pending]


def _live_of_current(transport: ConnectionTransport) -> Dict[Tuple[int, int], list]:
    live = {}
    for key, receipts in transport._connections.items():
        assert all(r.pending for r in receipts), "a connection holds a fired receipt"
        if receipts:
            live[divmod(key, NODES)] = _live_payloads(receipts)
    return live


def _assert_fifo(log) -> None:
    """Each directed pair's deliveries are in send order (payloads are
    ``(step, index)``, increasing in send order) at non-decreasing
    times."""
    last = {}
    for entry in log:
        if entry[0] == "deliver":
            _, src, dst, payload, now = entry
            previous = last.get((src, dst))
            if previous is not None:
                assert previous[0] < payload, ("out of send order", entry)
                assert previous[1] <= now, ("delivery time fell", entry)
            last[src, dst] = (payload, now)


# -- one observed stack per implementation --------------------------------------------


class Stack:
    """Simulator + fabric + transport with everything observable logged."""

    def __init__(self, transport_cls, seed, bandwidths, capacity, endpoints=NODES):
        self.sim = Simulator(seed=seed)
        self.fabric = NetworkFabric(
            self.sim,
            complete_topology(NODES, latency_ms=10.0, jitter_ms=6.0, seed=seed),
            # A slow uplink queues bursts, so several packets per pair
            # are in flight at once; per-node overrides mix the speeds.
            FabricConfig(bandwidth_bytes_per_ms=40.0),
            node_bandwidth=bandwidths,
        )
        self.log = []
        self.fabric.set_observer(self)
        self.transport = transport_cls(self.fabric, buffer_capacity=capacity)
        self.endpoints = [self.transport.endpoint(n) for n in range(endpoints)]
        for node, endpoint in enumerate(self.endpoints):
            endpoint.set_receiver(
                lambda src, kind, payload, node=node: self.log.append(
                    ("recv", node, src, payload, self.sim.now)
                )
            )

    def on_send(self, packet, now):
        self.log.append(("send", packet.src, packet.dst, packet.payload, now))

    def on_deliver(self, packet, now):
        self.log.append(("deliver", packet.src, packet.dst, packet.payload, now))

    def on_drop(self, packet, now, reason):
        self.log.append(("drop", packet.src, packet.dst, packet.payload, now, reason))

    def apply(self, step, op):
        name, *args = op
        if name == "send":
            src, dst, sizes = args
            for index, size in enumerate(sizes if src != dst else ()):
                self.endpoints[src].send(dst, "SEQ", (step, index), size)
        elif name == "run":
            self.sim.run(until=self.sim.now + args[0])
        elif name == "silence":
            self.fabric.silence(args[0])
        else:
            src, dst, probability = args
            if src != dst:
                self.fabric.set_link(src, dst, LinkProfile(probability))

    def observable(self):
        return (
            self.log,
            self.transport.purged_count,
            self.sim.now,
            self.sim.pending_events,
        )


node = st.integers(0, NODES - 1)
#: A burst on one pair: only back-to-back sends overflow a buffer.
send = st.tuples(
    st.just("send"), node, node, st.lists(st.integers(20, 400), min_size=1, max_size=8)
)
operation = st.one_of(
    send,
    send,
    st.tuples(st.just("run"), st.floats(min_value=0.0, max_value=25.0)),
    st.tuples(st.just("silence"), node),
    st.tuples(st.just("lossy"), node, node, st.sampled_from([0.0, 0.5, 1.0])),
)


def _compare(capacity, operations, bandwidths, seed, endpoints=NODES):
    current, legacy = (
        Stack(transport_cls, seed, bandwidths, capacity, endpoints)
        for transport_cls in (ConnectionTransport, _LegacyConnectionTransport)
    )
    for step, op in enumerate([*operations, ("run", 1e6)]):
        current.apply(step, op)
        legacy.apply(step, op)
        assert current.observable() == legacy.observable(), (step, op)
        if endpoints == NODES:
            assert _live_of_current(current.transport) == legacy.transport.live()
    assert current.sim.pending_events == 0
    _assert_fifo(current.log)
    return current


@pytest.mark.parametrize("capacity", [1, 2, 3, 4])
@settings(max_examples=40, deadline=None)
@given(
    operations=st.lists(operation, min_size=1, max_size=40),
    bandwidths=st.dictionaries(node, st.sampled_from([None, 10.0, 400.0])),
    seed=st.integers(0, 1000),
)
def test_connection_records_match_full_scan_bookkeeping(
    capacity, operations, bandwidths, seed
):
    _compare(capacity, operations, bandwidths, seed)


@pytest.mark.parametrize("capacity", [1, 2, 3, 4])
def test_buffer_filling_after_drops_on_arrival_matches(capacity):
    """Node 1 is silenced with a full buffer of node 0's packets in
    flight; some of them arrive (and are dropped) before node 0 sends
    another burst, larger than the buffer, into the same connection."""
    burst = [400] * capacity
    operations = [
        ("send", 0, 1, burst),
        ("silence", 1),
        ("run", 25.0),
        ("send", 0, 1, [*burst, 400, 400]),
    ]
    current = _compare(capacity, operations, {}, seed=7)
    dropped_at = [
        entry[4]
        for entry in current.log
        if entry[0] == "drop" and entry[-1] == "receiver-silenced"
    ]
    assert min(dropped_at) <= 25.0
    assert current.transport.purged_count > 0


@pytest.mark.parametrize("capacity", [1, 2])
def test_receipts_to_a_node_without_an_endpoint_leave_at_capacity(capacity):
    """Node 2 has no endpoint, so its packets fire without arriving at
    one; the send side reaps them once the buffer is at capacity."""
    burst = [400] * (capacity + 1)
    operations = [("send", 0, 2, burst), ("run", 1e3), ("send", 0, 2, burst)]
    current = _compare(capacity, operations, {}, seed=7, endpoints=2)
    # One overflow per burst: the first burst's fired receipts are reaped.
    assert current.transport.purged_count == 2
    assert "no-handler" in [entry[-1] for entry in current.log]
