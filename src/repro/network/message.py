"""Packets and wire-size accounting.

The paper's traffic model (section 5.3): each multicast carries 256 bytes
of application payload, to which NeEM adds a 24-byte header, "besides
TCP/IP overhead".  We account a fixed 40-byte TCP/IP overhead per packet
(IPv4 20 + TCP 20) so bandwidth numbers are grounded, and a small control
size for IHAVE/IWANT advertisements (a 16-byte message identifier plus
header and overhead).  Sizes only influence NIC serialization delay and
byte counters; protocol correctness never depends on them.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

#: NeEM protocol header added to every application payload (section 5.3).
NEEM_HEADER_BYTES = 24

#: Fixed per-packet transport overhead (IPv4 + TCP headers).
PACKET_OVERHEAD_BYTES = 40

#: Wire size of a control message (IHAVE/IWANT): 128-bit message id plus
#: NeEM header, before packet overhead.
CONTROL_OVERHEAD_BYTES = 16 + NEEM_HEADER_BYTES

#: Wire size of an advertisement or request (IHAVE/IWANT).
CONTROL_PACKET_BYTES = CONTROL_OVERHEAD_BYTES + PACKET_OVERHEAD_BYTES

_next_packet_id = itertools.count().__next__


class SlotRecord:
    """Value equality and a field ``repr`` over ``__slots__`` for the
    per-packet wire objects, which a ``@dataclass`` would give an
    instance dict and a generated ``__init__`` each."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:  # no __hash__: mutable records
        if not isinstance(other, SlotRecord) or other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = self.__slots__
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, self._values()))
        return f"{type(self).__name__}({fields})"


class Packet(SlotRecord):
    """A unit of traffic crossing the fabric.

    ``payload`` is an arbitrary protocol message object; the fabric never
    inspects it.  ``kind`` is a short tag ("MSG", "IHAVE", "IWANT",
    "SHUFFLE", ...) used by metrics and debugging.  ``size_bytes`` is the
    full wire size including all headers and overhead.
    """

    __slots__ = ("src", "dst", "kind", "payload", "size_bytes", "sent_at", "packet_id")

    def __init__(
        self,
        src: int,
        dst: int,
        kind: str,
        payload: Any,
        size_bytes: int,
        sent_at: float = 0.0,
        packet_id: Optional[int] = None,
    ) -> None:
        if size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive, got {size_bytes}")
        if src == dst:
            raise ValueError(f"packet to self: node {src}")
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.size_bytes = size_bytes
        self.sent_at = sent_at
        self.packet_id = _next_packet_id() if packet_id is None else packet_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet({self.kind} {self.src}->{self.dst}, "
            f"{self.size_bytes}B, id={self.packet_id})"
        )


def payload_packet_size(application_bytes: int) -> int:
    """Wire size of a full payload transmission (MSG)."""
    return application_bytes + NEEM_HEADER_BYTES + PACKET_OVERHEAD_BYTES

