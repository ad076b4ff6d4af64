"""Differential property test for the connection transport's bookkeeping.

``ConnectionTransport`` keeps one record per directed connection and
reaps only the *fired prefix* of its in-flight list.  That must be
observationally identical to the bookkeeping it replaced -- two
tuple-keyed dicts and a full rescan of the in-flight set on every send --
of which this file carries a verbatim copy.  Hypothesis drives both
through the same interleavings of send / ``run(until=...)`` / silence /
gray-duplicate links, for every purge policy and small capacities, and
after every step compares:

- the full event log: observer ``on_send`` / ``on_deliver`` / ``on_drop``
  calls and receiver up-calls, with exact timestamps;
- ``purged_count``, the clock and the number of queued events;
- the state of the ``network.connections`` stream (equal states from
  equal seeds mean equal draw counts, and equal ``DROP_RANDOM`` victims);
- the live in-flight set per pair, in insertion order -- what a purge
  decision sees -- and that fired receipts really are a prefix.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.connection import PurgePolicy
from repro.network.fabric import (
    FabricConfig,
    LinkProfile,
    NetworkFabric,
    SendReceipt,
)
from repro.network.message import Packet
from repro.network.transport import ConnectionTransport, Transport
from repro.sim.engine import Simulator
from repro.topology.routing import ClientNetworkModel

NODES = 3


# -- the legacy bookkeeping (full-scan reap), verbatim ------------------------------


class _LegacyConnectionTransport(Transport):
    def __init__(
        self,
        fabric: NetworkFabric,
        buffer_capacity: int = 64,
        purge_policy: PurgePolicy = PurgePolicy.DROP_OLDEST,
    ) -> None:
        super().__init__(fabric)
        if buffer_capacity < 1:
            raise ValueError(f"buffer_capacity must be >= 1, got {buffer_capacity}")
        self.buffer_capacity = buffer_capacity
        self.purge_policy = purge_policy
        self._last_delivery: Dict[Tuple[int, int], float] = {}
        self._in_flight: Dict[Tuple[int, int], Dict[int, SendReceipt]] = {}
        self._rng = fabric.sim.rng.stream("network.connections")
        self.purged_count = 0

    def _submit_many(self, packets) -> None:
        # The per-packet loop this copy inherited from ``Transport``.
        for packet in packets:
            self._submit(packet)

    def _submit(self, packet: Packet) -> None:
        pair = (packet.src, packet.dst)
        in_flight = self._in_flight.setdefault(pair, {})
        self._reap_delivered(in_flight)

        if len(in_flight) >= self.buffer_capacity:
            victim = self._pick_victim(in_flight, packet)
            if victim is packet:
                # DROP_NEWEST: account it as a sent-then-purged packet so
                # observers see consistent send/drop pairs.
                packet.sent_at = self.sim.now
                if self._fabric.observer is not None:
                    self._fabric.observer.on_send(packet, self.sim.now)
                    self._fabric.observer.on_drop(packet, self.sim.now, "purged")
                self.purged_count += 1
                return
            receipt = in_flight.pop(victim.packet_id)
            self._fabric.abort(receipt, reason="purged")
            self.purged_count += 1

        floor = self._last_delivery.get(pair, 0.0)
        receipt = self._fabric.send(packet, min_deliver_at=floor)
        if receipt is None:
            return
        self._last_delivery[pair] = receipt.deliver_at
        in_flight[packet.packet_id] = receipt

    def _pick_victim(
        self, in_flight: Dict[int, SendReceipt], incoming: Packet
    ) -> Packet:
        if self.purge_policy is PurgePolicy.DROP_NEWEST:
            return incoming
        receipts = list(in_flight.values())
        if self.purge_policy is PurgePolicy.DROP_OLDEST:
            return min(receipts, key=lambda r: r.deliver_at).packet
        return self._rng.choice(receipts).packet

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
    for key, connection in transport._connections.items():
        pending = [r.handle.pending for r in connection.receipts]
        assert pending == sorted(pending), "fired receipts are not a prefix"
        if any(pending):
            live[divmod(key, NODES)] = _live_payloads(connection.receipts)
    return live


# -- one observed stack per implementation --------------------------------------------


class Stack:
    """Simulator + fabric + transport with everything observable logged."""

    def __init__(self, transport_cls, seed, jitter, capacity, policy):
        self.sim = Simulator(seed=seed)
        self.fabric = NetworkFabric(
            self.sim,
            ClientNetworkModel.uniform(NODES, latency_ms=10.0),
            # A slow uplink queues bursts, so several packets per pair
            # are in flight at once; jitter exercises the FIFO floor.
            FabricConfig(bandwidth_bytes_per_ms=40.0, jitter_ms=jitter),
        )
        self.log = []
        self.fabric.set_observer(self)
        self.transport = transport_cls(
            self.fabric, buffer_capacity=capacity, purge_policy=policy
        )
        self.endpoints = [self.transport.endpoint(n) for n in range(NODES)]
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
        elif name == "unsilence":
            self.fabric.unsilence(args[0])
        elif name == "duplicate":
            src, dst, probability = args
            if src != dst:
                self.fabric.set_link(
                    src, dst, LinkProfile(duplicate_probability=probability)
                )
        else:
            self.fabric.clear_gray()

    def observable(self):
        return (
            self.log,
            self.transport.purged_count,
            self.sim.now,
            self.sim.pending_events,
            self.transport._rng.getstate(),
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
    st.tuples(st.just("unsilence"), node),
    st.tuples(st.just("duplicate"), node, node, st.sampled_from([0.5, 1.0])),
    st.tuples(st.just("clear_gray")),
)


@pytest.mark.parametrize("capacity", [1, 2, 3, 4])
@pytest.mark.parametrize("policy", list(PurgePolicy), ids=lambda p: p.name)
@settings(max_examples=40, deadline=None)
@given(
    operations=st.lists(operation, min_size=1, max_size=40),
    jitter=st.sampled_from([0.0, 6.0]),
    seed=st.integers(0, 1000),
)
def test_connection_records_match_full_scan_bookkeeping(
    policy, capacity, operations, jitter, seed
):
    current = Stack(ConnectionTransport, seed, jitter, capacity, policy)
    legacy = Stack(_LegacyConnectionTransport, seed, jitter, capacity, policy)
    for step, op in enumerate([*operations, ("run", 1e6)]):
        current.apply(step, op)
        legacy.apply(step, op)
        assert current.observable() == legacy.observable(), (step, op)
        assert _live_of_current(current.transport) == legacy.transport.live()
    assert current.sim.pending_events == 0
