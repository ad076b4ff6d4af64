"""Batch send path == the per-packet path it replaced.

A gossip forward crosses transport -> fabric -> NIC -> event queue as
one burst (``Endpoint.send_many``).  This file carries copies of the
per-packet code that burst replaced -- ``ConnectionTransport._submit``,
``NetworkFabric.send`` / ``abort`` with their ``SendReceipt`` record,
``NetworkInterface.transmission_done_at`` -- cut to the stages the fabric
still has: silencing, uplink serialization, directed-link loss and the
pair's latency -- plus the connection rule both follow: a connection
holds its in-flight receipts, and a delivered one leaves at delivery
(so does one dropped on arrival because an end was silenced).  It
drives both through the same interleavings of bursts
(1-16 distinct destinations, mixed MSG/IHAVE), single sends and
``run(until=...)`` steps, under per-node bandwidth overrides, link loss
on one directed link or on every one (the shape
``GrayFailurePlan(lossy_link_fraction=1.0)`` applies), silenced senders
and receivers, drop-oldest buffer capacities 1-4, and an observer or
none.  After every step it compares, per packet, the
live queue entries ``(time, seq)`` and the firing order with delivery
times; and the observer's totals and drop reasons, every NIC's state,
every connection's whole receipt list, and the ``network.fabric.gray``
stream state.

Mutants of the burst path this kills, each a one-token or one-line edit
(checked when written):

- running-sum order: ``free_at += duration`` moved below
  ``times.append(...)`` in ``NetworkFabric.send_many``'s loop (each
  packet departs at its start, not its end);
- seq order: ``(time, seq, ...)`` -> ``(time, -seq, ...)`` in
  ``Simulator.schedule_at_many``'s heap entry;
- purge victim: ``receipts.pop(0)`` -> ``receipts.pop()`` in
  ``ConnectionTransport._submit_many``;
- a draw for a lossless link: the ``link.loss_probability > 0.0`` guard
  removed from ``NetworkFabric.send_many``'s loss check;
- delivered receipt left in its list: the fired-prefix pop removed from
  ``Endpoint._on_packet`` in ``repro.network.transport``;
- receipt dropped on arrival left in its list: the same pop removed from
  ``Endpoint._on_lost``.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Optional

from hypothesis import given, settings, strategies as st

from repro.network.fabric import FabricConfig, LinkProfile, NetworkFabric
from repro.network.message import Packet, SlotRecord
from repro.network.nic import NetworkInterface
from repro.network.transport import ConnectionTransport, Endpoint
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.topology.geometry import Point
from repro.topology.routing import ClientNetworkModel

NODES = 18
MSG_BYTES = 320
IHAVE_BYTES = 80


# -- the per-packet reference ------------------------------------------------


class SendReceipt(SlotRecord):
    """Tracks one in-flight packet so it can be purged mid-flight."""

    __slots__ = ("packet", "handle", "deliver_at")

    def __init__(
        self, packet: Packet, handle: Event, deliver_at: float
    ) -> None:
        self.packet = packet
        self.handle = handle
        self.deliver_at = deliver_at


class ReferenceInterface(NetworkInterface):
    def transmission_done_at(self, now: float, size_bytes: int) -> float:
        """Reserve uplink time for a packet; return its serialization
        completion time."""
        self.bytes_sent += size_bytes
        self.packets_sent += 1
        if self.bandwidth_bytes_per_ms is None:
            return now
        start = self.uplink_free_at
        if start < now:
            start = now
        duration = size_bytes / self.bandwidth_bytes_per_ms
        self.uplink_free_at = start + duration
        self.busy_time_ms += duration
        return self.uplink_free_at


class ReferenceFabric(NetworkFabric):
    """The fabric with its per-packet send path."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.nics = [
            ReferenceInterface(nic.bandwidth_bytes_per_ms) for nic in self.nics
        ]

    def send(self, packet: Packet) -> Optional["SendReceipt"]:
        """Inject a packet.  Returns a :class:`SendReceipt` for in-flight
        packets, or ``None`` when the packet was dropped at the source
        (silenced sender or link loss)."""
        now = self.sim.now
        packet.sent_at = now
        if self.observer is not None:
            self.observer.on_send(packet, now)

        if self._silenced[packet.src]:
            self._drop(packet, "sender-silenced")
            return None
        serialized_at = self.nics[packet.src].transmission_done_at(
            now, packet.size_bytes
        )
        link = self._links.get((packet.src, packet.dst))
        if (
            link is not None
            and link.loss_probability > 0.0
            and self._gray_rng.random() < link.loss_probability
        ):
            self._drop(packet, "link-loss")
            return None
        deliver_at = serialized_at + self.model.latency(packet.src, packet.dst)
        handle = self.sim.schedule_at(deliver_at, self._deliver, packet)
        return SendReceipt(packet, handle, deliver_at)

    def abort(self, receipt: "SendReceipt", reason: str = "purged") -> None:
        """Cancel an in-flight packet (connection-buffer purging)."""
        if receipt.handle.pending:
            receipt.handle.cancel()
            self._drop(receipt.packet, reason)


class ReferenceEndpoint(Endpoint):
    """An endpoint that pops an arriving packet's receipt."""

    def _on_lost(self, packet: Packet) -> None:
        key = packet.src * self._size + packet.dst
        receipts = self._connections.get(key, [])
        # The arriving receipt heads its list: pop the fired prefix.
        while receipts and not receipts[0].handle.pending:
            del receipts[0]

    def _on_packet(self, packet: Packet) -> None:
        self._on_lost(packet)
        receiver = self._listeners.get(packet.kind, self._receiver)
        if receiver is not None:
            receiver(packet.src, packet.kind, packet.payload)


class ReferenceTransport(ConnectionTransport):
    """The connection transport submitting one packet at a time."""

    def endpoint(self, node: int) -> Endpoint:
        return ReferenceEndpoint(self, node)

    def _submit_many(self, packets) -> None:
        for packet in packets:
            self._submit(packet)

    def _submit(self, packet: Packet) -> None:
        key = packet.src * self._size + packet.dst
        receipts = self._connections.setdefault(key, [])
        if len(receipts) >= self.buffer_capacity:
            # Sorted by deliver_at, so the head is the oldest.
            self.purged_count += 1
            self._fabric.abort(receipts.pop(0))

        receipt = self._fabric.send(packet)
        if receipt is not None:
            receipts.append(receipt)


# -- one observed stack per implementation -----------------------------------


class Stack:
    """Simulator + fabric + connection transport, everything observable
    logged; ``batched`` picks the burst path or the reference."""

    def __init__(self, batched, seed, model, config, overrides, capacity, observe):
        self.batched = batched
        self.sim = Simulator(seed=seed)
        fabric_cls = NetworkFabric if batched else ReferenceFabric
        transport_cls = ConnectionTransport if batched else ReferenceTransport
        self.fabric = fabric_cls(self.sim, model, config, node_bandwidth=overrides)
        self.totals: Counter = Counter()
        if observe:
            self.fabric.set_observer(self)
        self.transport = transport_cls(self.fabric, buffer_capacity=capacity)
        self.received = []
        self.sent = 0
        self.endpoints = []
        for node in range(NODES):
            endpoint = self.transport.endpoint(node)
            endpoint.set_receiver(
                lambda src, kind, payload, node=node: self.received.append(
                    (node, src, kind, payload, self.sim.now)
                )
            )
            self.endpoints.append(endpoint)

    # PacketObserver: totals, because a burst reports its sends at once.
    def on_send(self, packet, now):
        self.totals["send", packet.kind, now] += 1

    def on_deliver(self, packet, now):
        self.totals["deliver", packet.kind, now] += 1

    def on_drop(self, packet, now, reason):
        self.totals["drop", reason, now] += 1

    def apply(self, step, op):
        name, *args = op
        if name == "repeat":
            # The same burst back to back: connections fill and purge.
            burst_op, times = args
            for _ in range(times):
                self.apply(step, burst_op)
        elif name == "burst":
            src, messages = args
            self.sent += 1
            tagged = [
                (dst, kind, (step, self.sent, index), size)
                for index, (dst, kind, size) in enumerate(messages)
            ]
            if self.batched:
                self.endpoints[src].send_many(tagged)
            else:
                for message in tagged:
                    self.endpoints[src].send(*message)
        elif name == "send":
            src, dst, kind, size = args
            self.endpoints[src].send(dst, kind, (step, 0), size)
        elif name == "run":
            self.sim.run(until=self.sim.now + args[0])
        elif name == "silence":
            self.fabric.silence(args[0])
        elif name == "link":
            src, dst, loss = args
            self.fabric.set_link(src, dst, LinkProfile(loss))
        else:
            # One profile on every directed link, as GrayFailurePlan
            # applies lossy_link_fraction=1.0.
            profile = LinkProfile(*args)
            for src in range(NODES):
                for dst in range(NODES):
                    if src != dst:
                        self.fabric.set_link(src, dst, profile)

    def queued(self):
        """Live queue entries, per packet: (time, seq, what is delivered)."""
        entries = []
        for time, seq, _, args, event in self.sim._heap:
            if not event.cancelled:
                packet = args[0]
                entries.append(
                    (time, seq, packet.src, packet.dst, packet.kind, packet.payload)
                )
        return sorted(entries)

    def connections(self):
        """Every connection's whole receipt list: payload and whether it
        is still in flight."""
        state = {}
        for key, receipts in self.transport._connections.items():
            if self.batched:
                held = [(r.args[0].payload, r.pending) for r in receipts]
            else:
                held = [(r.packet.payload, r.handle.pending) for r in receipts]
            state[key] = held
        return state

    def observable(self):
        return (
            self.queued(),
            self.sim._seq,
            self.received,
            self.totals,
            [
                (nic.uplink_free_at, nic.bytes_sent, nic.packets_sent, nic.busy_time_ms)
                for nic in self.fabric.nics
            ],
            self.connections(),
            self.transport.purged_count,
            self.sim.now,
            self.sim.rng.stream("network.fabric.gray").getstate(),
        )


def _model(seed: int) -> ClientNetworkModel:
    """Latencies from a few values, so deliveries tie now and then."""
    rng = random.Random(seed)
    latency = [
        [0.0 if i == j else rng.choice((2.0, 5.0, 7.5, 20.0)) for j in range(NODES)]
        for i in range(NODES)
    ]
    hops = [[0 if i == j else 1 for j in range(NODES)] for i in range(NODES)]
    return ClientNetworkModel(latency, hops, [Point(i, 0.0) for i in range(NODES)])


node = st.integers(0, NODES - 1)
#: Traffic favours the pairs among nodes 0-3, so connections fill and
#: purge.
sender = st.one_of(st.sampled_from([0, 1]), node)


def receiver(src):
    others = [n for n in range(NODES) if n != src]
    return st.one_of(st.sampled_from(others[:3]), st.sampled_from(others))
message = st.tuples(
    st.sampled_from(["MSG", "IHAVE"]), st.sampled_from([MSG_BYTES, IHAVE_BYTES, 1])
)


@st.composite
def burst(draw):
    src = draw(sender)
    dsts = draw(st.lists(receiver(src), min_size=1, max_size=16, unique=True))
    kinds = draw(st.lists(message, min_size=len(dsts), max_size=len(dsts)))
    return ("burst", src, [(d, k, s) for d, (k, s) in zip(dsts, kinds)])


@st.composite
def single(draw):
    src = draw(sender)
    dst = draw(receiver(src))
    kind, size = draw(message)
    return ("send", src, dst, kind, size)


@st.composite
def link(draw):
    src = draw(node)
    dst = draw(node.filter(lambda n: n != src))
    return ("link", src, dst, draw(st.sampled_from([0.0, 0.3])))


repeat = st.tuples(st.just("repeat"), burst(), st.integers(2, 5))
operation = st.one_of(
    burst(),
    burst(),
    repeat,
    single(),
    st.tuples(st.just("run"), st.sampled_from([0.0, 1.0, 3.0, 8.0, 30.0])),
    st.tuples(st.just("silence"), node),
    link(),
    st.tuples(st.just("lossy"), st.sampled_from([0.0, 0.05, 0.5])),
)


@settings(max_examples=150, deadline=None)
@given(
    fill=repeat,
    operations=st.lists(operation, min_size=1, max_size=40),
    seed=st.integers(0, 1000),
    bandwidth=st.sampled_from([None, 40.0, 1250.0]),
    overrides=st.dictionaries(node, st.sampled_from([None, 10.0, 400.0])),
    capacity=st.integers(1, 4),
    observe=st.booleans(),
)
def test_bursts_match_the_per_packet_path(
    fill, operations, seed, bandwidth, overrides, capacity, observe
):
    """Every example opens with a repeated burst, so connections fill and
    purge before the rest of the interleaving."""
    model = _model(seed)
    config = FabricConfig(bandwidth_bytes_per_ms=bandwidth)
    stacks = [
        Stack(batched, seed, model, config, overrides, capacity, observe)
        for batched in (True, False)
    ]
    batched, reference = stacks
    for step, op in enumerate([fill, *operations, ("run", 1e6)]):
        for stack in stacks:
            stack.apply(step, op)
        assert batched.observable() == reference.observable(), (step, op)
    assert batched.sim.pending_events == 0
