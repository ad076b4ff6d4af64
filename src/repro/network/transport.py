"""Point-to-point transports for protocol code.

Protocol layers talk to an :class:`Endpoint` bound to their node id:
``endpoint.send(dst, kind, payload, size_bytes)`` or, for several
messages handed over at one instant, ``endpoint.send_many(messages)``
out; a per-kind table of receivers (``endpoint.listen(table)``, the
port table a host keeps) and a catch-all ``receiver(src, kind,
payload)`` in.  Two transports implement the endpoint factory:

- :class:`DatagramTransport` -- unordered, independently lossy packets;
  matches the abstract "unreliable point-to-point communication service"
  of the paper's Fig. 2 model.
- :class:`ConnectionTransport` -- the NeEM-style layer (section 5.2):
  per-pair FIFO delivery and a bounded per-connection buffer whose
  overflow triggers a purging strategy.  This is the default for
  experiments, as in the paper.

Both submit in bursts (``_submit_many``); a single send is a burst of
one.  A burst goes to the fabric as one :meth:`NetworkFabric.send_many`
call, a lone packet through :meth:`NetworkFabric.send`, so observers and
per-call probes see single sends as before.

A connection's whole state is one :class:`_Connection` record -- the
FIFO floor plus the in-flight receipts in send order -- found by one
int-keyed lookup per packet.  Because the floor makes ``deliver_at``
non-decreasing along that list and same-instant events fire in
scheduling order, the receipts that have already fired are always a
prefix of it (purge victims are popped when aborted, source-dropped
sends never enter): reaping pops that prefix, never scanning the rest.
A burst is reaped, purged and sent in packet order; a second packet for
one connection within a burst first sends what precedes it, since its
floor is the first one's delivery time.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.network.connection import PurgePolicy
from repro.network.fabric import NetworkFabric, SendReceipt
from repro.network.message import Packet

Receiver = Callable[[int, str, Any], None]
#: One message for :meth:`Endpoint.send_many`: (dst, kind, payload, size).
Message = Tuple[int, str, Any, int]


class Endpoint:
    """A node-bound sender/receiver handle onto a transport."""

    def __init__(self, transport: "Transport", node: int) -> None:
        self._transport = transport
        self.node = node
        self._receiver: Optional[Receiver] = None
        self._listeners: Dict[str, Receiver] = {}
        transport._fabric.register(node, self._on_packet)

    def set_receiver(self, receiver: Receiver) -> None:
        """Install the up-call invoked as ``receiver(src, kind, payload)``
        for every kind without a listener of its own."""
        self._receiver = receiver

    def listen(self, listeners: Dict[str, Receiver]) -> None:
        """Route each packet whose kind ``listeners`` maps straight to
        that receiver.  The table is read live: later changes to it take
        effect."""
        self._listeners = listeners

    def send(self, dst: int, kind: str, payload: Any, size_bytes: int) -> None:
        """Send a message to ``dst``.  Fire-and-forget, like the paper's
        ``Send`` primitive."""
        self._transport._submit_many(
            (Packet(self.node, dst, kind, payload, size_bytes),)
        )

    def send_many(self, messages: Sequence[Message]) -> None:
        """Send ``(dst, kind, payload, size_bytes)`` messages handed over
        at this instant, in order: one burst through the transport."""
        node = self.node
        self._transport._submit_many(
            [
                Packet(node, dst, kind, payload, size)
                for dst, kind, payload, size in messages
            ]
        )

    def _on_packet(self, packet: Packet) -> None:
        kind = packet.kind
        receiver = self._listeners.get(kind, self._receiver)
        if receiver is not None:
            receiver(packet.src, kind, packet.payload)


class Transport:
    """Base transport: an endpoint factory over a fabric."""

    def __init__(self, fabric: NetworkFabric) -> None:
        self._fabric = fabric

    @property
    def fabric(self) -> NetworkFabric:
        return self._fabric

    @property
    def sim(self):
        return self._fabric.sim

    def endpoint(self, node: int) -> Endpoint:
        """Create the endpoint for ``node`` (registers its handler)."""
        return Endpoint(self, node)

    def _submit_many(self, packets: Sequence[Packet]) -> None:
        """Submit a burst (a single send is a burst of one)."""
        raise NotImplementedError

    def _inject(
        self, packets: Sequence[Packet], floors: Sequence[float]
    ) -> Sequence[Optional[SendReceipt]]:
        """Hand packets to the fabric: a lone one through ``send`` (so it
        is observed, and counted, as a single send), more as one burst."""
        if len(packets) == 1:
            return (self._fabric.send(packets[0], floors[0]),)
        return self._fabric.send_many(packets, floors)


class DatagramTransport(Transport):
    """Unordered, independently lossy point-to-point packets."""

    def _submit_many(self, packets: Sequence[Packet]) -> None:
        if packets:
            self._inject(packets, [0.0] * len(packets))


class _Connection:
    """One directed connection: its FIFO floor (the latest delivery time
    handed out) and its in-flight receipts, oldest first."""

    __slots__ = ("floor", "receipts")

    def __init__(self) -> None:
        self.floor = 0.0
        self.receipts: List[SendReceipt] = []


class ConnectionTransport(Transport):
    """FIFO-per-pair transport with bounded, purging connection buffers.

    FIFO is enforced by floor-bounding each packet's delivery time with
    the previous delivery time on the same directed pair (a TCP stream
    cannot reorder).  The "buffer" is the set of in-flight packets per
    pair; when it exceeds ``buffer_capacity`` the purge policy picks a
    victim, which is then aborted mid-flight -- modelling NeEM dropping
    user-space-buffered messages when a connection blocks.
    """

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
        #: ``src * size + dst`` -> the directed connection's record.
        self._connections: Dict[int, _Connection] = {}
        self._size = fabric.size
        self._rng = fabric.sim.rng.stream("network.connections")
        self.purged_count = 0

    def _submit_many(self, packets: Sequence[Packet]) -> None:
        size = self._size
        connections = self._connections
        capacity = self.buffer_capacity
        burst: List[Packet] = []
        links: List[_Connection] = []
        floors: List[float] = []
        for packet in packets:
            key = packet.src * size + packet.dst
            connection = connections.get(key)
            if connection is None:
                connection = connections[key] = _Connection()
            elif connection in links:
                self._send(burst, links, floors)
                burst = []
                links = []
                floors = []
            receipts = connection.receipts
            # Reap the fired prefix (module docstring).
            while receipts and (receipts[0].fired or receipts[0].cancelled):
                del receipts[0]
            if len(receipts) >= capacity and self._purge(packet, receipts):
                continue
            burst.append(packet)
            links.append(connection)
            floors.append(connection.floor)
        if burst:
            self._send(burst, links, floors)

    def _purge(self, packet: Packet, receipts: List[SendReceipt]) -> bool:
        """Make room in a full buffer; True when ``packet`` itself was
        the victim (DROP_NEWEST) and must not be sent."""
        self.purged_count += 1
        if self.purge_policy is PurgePolicy.DROP_NEWEST:
            # Account it as a sent-then-purged packet so observers see
            # consistent send/drop pairs.
            now = packet.sent_at = self.sim.now
            observer = self._fabric.observer
            if observer is not None:
                observer.on_send(packet, now)
                observer.on_drop(packet, now, "purged")
            return True
        # Sorted by deliver_at, so the head is the oldest; DROP_RANDOM
        # makes its one draw over the live set.
        victim = 0
        if self.purge_policy is PurgePolicy.DROP_RANDOM:
            victim = self._rng.choice(range(len(receipts)))
        self._fabric.abort(receipts.pop(victim))
        return False

    def _send(
        self, packets: List[Packet], links: List[_Connection], floors: List[float]
    ) -> None:
        receipts = self._inject(packets, floors)
        for link, receipt in zip(links, receipts):
            if receipt is not None:
                link.floor = receipt.time
                link.receipts.append(receipt)
