"""The point-to-point transport protocol code talks through.

Protocol layers talk to an :class:`Endpoint` bound to their node id:
``endpoint.send(dst, kind, payload, size_bytes)`` or, for several
messages handed over at one instant, ``endpoint.send_many(messages)``
out; a per-kind table of receivers (``endpoint.listen(table)``, the
port table a host keeps) and a catch-all ``receiver(src, kind,
payload)`` in.  :class:`ConnectionTransport` is the endpoint factory.

It models NeEM's connection layer (section 5.2), the implementation the
paper modifies: gossip runs over TCP connections, and when one blocks,
messages buffer in user space and a purging strategy drops *older*
buffered messages first (fresh epidemic traffic is worth more than
stale traffic), keeping latency bounded.  Per-pair FIFO order and
per-link loss come from the fabric, so a connection whose buffer never
fills behaves exactly like a datagram.

Sends go out in bursts (``_submit_many``); a single send is a burst of
one.  A burst goes to the fabric as one :meth:`NetworkFabric.send_many`
call, a lone packet through :meth:`NetworkFabric.send`, so observers and
per-call probes see single sends as before.

A connection holds its in-flight receipts; a delivered one leaves at
delivery.  Its whole state is that list, in send order, found by one
int-keyed lookup per packet.  The fabric delivers a directed pair's
packets at non-decreasing times (one FIFO uplink, one latency per pair)
and same-instant events fire in scheduling order, so the receipts that
have fired are always a prefix of the list (purge victims are popped
when aborted, source-dropped sends never enter).  The receiving endpoint
pops that prefix -- the receipt itself -- when its packet arrives, or is
dropped on arrival because an end was silenced meanwhile.  Only a
packet to a node that has no endpoint fires without reaching one; the
send side pops such receipts when it finds the buffer at capacity,
before purging.  A burst is purged and sent in packet order; a second
packet for one connection within a burst first sends what precedes it,
so that the buffer it is counted against holds the first one.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.network.fabric import NetworkFabric, SendReceipt
from repro.network.message import Packet

Receiver = Callable[[int, str, Any], None]
#: One message for :meth:`Endpoint.send_many`: (dst, kind, payload, size).
Message = Tuple[int, str, Any, int]


class Endpoint:
    """A node-bound sender/receiver handle onto a transport."""

    def __init__(self, transport: "ConnectionTransport", node: int) -> None:
        self._transport = transport
        self.node = node
        self._receiver: Optional[Receiver] = None
        self._listeners: Dict[str, Receiver] = {}
        self._connections = transport._connections
        self._size = transport._size
        transport._fabric.register(node, self._on_packet, self._on_lost)

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

    def _on_lost(self, packet: Packet) -> None:
        """A packet in flight to this node was dropped on arrival: its
        receipt, the fired prefix, leaves its connection."""
        receipts = self._connections.get(packet.src * self._size + self.node)
        if receipts and receipts[0].fired:
            del receipts[0]

    def _on_packet(self, packet: Packet) -> None:
        # The delivered receipt leaves its connection as in ``_on_lost``
        # (inlined: this runs once per delivered packet).
        receipts = self._connections.get(packet.src * self._size + self.node)
        if receipts and receipts[0].fired:
            del receipts[0]
        kind = packet.kind
        receiver = self._listeners.get(kind, self._receiver)
        if receiver is not None:
            receiver(packet.src, kind, packet.payload)


class ConnectionTransport:
    """FIFO-per-pair transport with bounded, purging connection buffers.

    The fabric already delivers each directed pair in send order, as a
    TCP stream would.  The "buffer" is the set of in-flight packets per
    pair; when it would exceed ``buffer_capacity`` the oldest is aborted
    mid-flight -- modelling NeEM dropping user-space-buffered messages
    when a connection blocks.
    """

    def __init__(self, fabric: NetworkFabric, buffer_capacity: int = 64) -> None:
        if buffer_capacity < 1:
            raise ValueError(f"buffer_capacity must be >= 1, got {buffer_capacity}")
        self._fabric = fabric
        self._size = fabric.size
        #: ``src * size + dst`` -> the directed connection's in-flight
        #: receipts, oldest first.
        self._connections: Dict[int, List[SendReceipt]] = {}
        self.buffer_capacity = buffer_capacity
        self.purged_count = 0

    @property
    def sim(self):
        return self._fabric.sim

    @property
    def fabric(self) -> NetworkFabric:
        return self._fabric

    def endpoint(self, node: int) -> Endpoint:
        """Create the endpoint for ``node`` (registers its handler)."""
        return Endpoint(self, node)

    def _submit_many(self, packets: Sequence[Packet]) -> None:
        if not packets:
            return
        # One sender per burst: its connections' keys share a base.
        base = packets[0].src * self._size
        connections = self._connections
        capacity = self.buffer_capacity
        fabric = self._fabric
        burst: List[Packet] = []
        keys: List[int] = []
        queues: List[List[SendReceipt]] = []
        for packet in packets:
            key = base + packet.dst
            receipts = connections.get(key)
            if receipts is None:
                receipts = connections[key] = []
            elif key in keys:
                # Send what precedes the repeat (module docstring).
                sent = fabric.send_many(burst) if len(burst) > 1 else (
                    fabric.send(burst[0]),
                )
                for queue, receipt in zip(queues, sent):
                    if receipt is not None:
                        queue.append(receipt)
                burst = []
                keys = []
                queues = []
            if len(receipts) >= capacity:
                # Only receipts that never reached an endpoint can have
                # left the queue here (module docstring).
                while receipts and not receipts[0].pending:
                    del receipts[0]
                if len(receipts) >= capacity:
                    # Purge: abort the oldest (receipts are sorted by
                    # ``deliver_at``, so that is the head).
                    self.purged_count += 1
                    fabric.abort(receipts.pop(0))
            burst.append(packet)
            keys.append(key)
            queues.append(receipts)
        sent = fabric.send_many(burst) if len(burst) > 1 else (fabric.send(burst[0]),)
        for queue, receipt in zip(queues, sent):
            if receipt is not None:
                queue.append(receipt)
