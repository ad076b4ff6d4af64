"""Point-to-point transports for protocol code.

Protocol layers talk to an :class:`Endpoint` bound to their node id:
``endpoint.send(dst, kind, payload, size_bytes)`` out,
``receiver(src, kind, payload)`` in.  Two transports implement the
endpoint factory:

- :class:`DatagramTransport` -- unordered, independently lossy packets;
  matches the abstract "unreliable point-to-point communication service"
  of the paper's Fig. 2 model.
- :class:`ConnectionTransport` -- the NeEM-style layer (section 5.2):
  per-pair FIFO delivery and a bounded per-connection buffer whose
  overflow triggers a purging strategy.  This is the default for
  experiments, as in the paper.

A connection's whole state is one :class:`_Connection` record -- the
FIFO floor plus the in-flight receipts in send order -- found by one
int-keyed lookup per send.  Because the floor makes ``deliver_at``
non-decreasing along that list and same-instant events fire in
scheduling order, the receipts that have already fired are always a
prefix of it (purge victims are popped when aborted, source-dropped
sends never enter): reaping pops that prefix, never scanning the rest.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.network.connection import PurgePolicy
from repro.network.fabric import NetworkFabric, SendReceipt
from repro.network.message import Packet

Receiver = Callable[[int, str, Any], None]


class Endpoint:
    """A node-bound sender/receiver handle onto a transport."""

    def __init__(self, transport: "Transport", node: int) -> None:
        self._transport = transport
        self.node = node
        self._receiver: Optional[Receiver] = None
        transport._fabric.register(node, self._on_packet)

    def set_receiver(self, receiver: Receiver) -> None:
        """Install the up-call invoked as ``receiver(src, kind, payload)``."""
        self._receiver = receiver

    def send(self, dst: int, kind: str, payload: Any, size_bytes: int) -> None:
        """Send a message to ``dst``.  Fire-and-forget, like the paper's
        ``Send`` primitive."""
        self._transport._submit(Packet(self.node, dst, kind, payload, size_bytes))

    def _on_packet(self, packet: Packet) -> None:
        if self._receiver is not None:
            self._receiver(packet.src, packet.kind, packet.payload)


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

    def _submit(self, packet: Packet) -> None:
        raise NotImplementedError


class DatagramTransport(Transport):
    """Unordered, independently lossy point-to-point packets."""

    def _submit(self, packet: Packet) -> None:
        self._fabric.send(packet)


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

    def _submit(self, packet: Packet) -> None:
        key = packet.src * self._size + packet.dst
        connection = self._connections.get(key)
        if connection is None:
            connection = self._connections[key] = _Connection()
        receipts = connection.receipts
        # Reap the fired prefix (module docstring).
        while receipts and not receipts[0].handle.pending:
            del receipts[0]
        if len(receipts) >= self.buffer_capacity:
            self.purged_count += 1
            if self.purge_policy is PurgePolicy.DROP_NEWEST:
                # Account it as a sent-then-purged packet so observers
                # see consistent send/drop pairs.
                now = packet.sent_at = self.sim.now
                observer = self._fabric.observer
                if observer is not None:
                    observer.on_send(packet, now)
                    observer.on_drop(packet, now, "purged")
                return
            # Sorted by deliver_at, so the head is the oldest;
            # DROP_RANDOM makes its one draw over the live set.
            victim = 0
            if self.purge_policy is PurgePolicy.DROP_RANDOM:
                victim = self._rng.choice(range(len(receipts)))
            self._fabric.abort(receipts.pop(victim))

        receipt = self._fabric.send(packet, connection.floor)
        if receipt is not None:
            connection.floor = receipt.deliver_at
            receipts.append(receipt)
