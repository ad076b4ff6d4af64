"""The Lazy Point-to-Point module (Fig. 3).

Sits between the gossip protocol and the transport.  On ``L-Send`` it
consults the Transmission Strategy: eager transmissions go out as
``MSG(i, d, r)``; lazy ones cache the payload in ``C`` and advertise
with ``IHAVE(i)``.  A gossip forward's ``L-Send`` to its ``f`` peers is
one :meth:`LazyPointToPoint.l_send_many` call: one ``Eager?`` pass
(``strategy.eager_many``), one cache write, and the MSG/IHAVE packets
handed to the transport as one ordered burst.  On the receive path it
maintains the set ``R`` of received payloads, requests
advertised-but-unknown payloads through the
:class:`~repro.scheduler.requests.RequestQueue` (Task 2), answers
``IWANT`` from the cache, and hands fresh payloads up via ``L-Receive``.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.gossip.known_ids import KnownIds
from repro.network.message import CONTROL_PACKET_BYTES, payload_packet_size
from repro.scheduler.cache import PayloadCache
from repro.scheduler.interfaces import SchedulerConfig, TransmissionStrategy
from repro.scheduler.requests import RequestQueue
from repro.sim.engine import Simulator

MSG = "MSG"
IHAVE = "IHAVE"
IWANT = "IWANT"

#: Transport send callable: (dst, kind, payload, size_bytes) -> None
SendFn = Callable[[int, str, Any, int], None]
#: One message of a burst: (dst, kind, payload, size_bytes).
Message = Tuple[int, str, Any, int]
#: Transport burst callable: sends the messages in order.
SendManyFn = Callable[[Sequence[Message]], None]
#: Up-call to gossip: (message_id, payload, round, sender) -> None
LReceiveFn = Callable[[int, Any, int, int], None]


class LazyPointToPoint:
    """One node's payload scheduler."""

    KINDS = (MSG, IHAVE, IWANT)

    def __init__(
        self,
        sim: Simulator,
        node: int,
        strategy: TransmissionStrategy,
        send: SendFn,
        send_many: SendManyFn,
        config: Optional[SchedulerConfig] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.strategy = strategy
        self.config = config or SchedulerConfig()
        self._send = send
        self._send_many = send_many
        self._l_receive: Optional[LReceiveFn] = None
        self.cache = PayloadCache(self.config.cache_capacity)
        self.received = KnownIds(self.config.received_capacity)
        self.requests = RequestQueue(sim, strategy, self._send_request)
        # Counters (diagnostics; authoritative traffic numbers come from
        # the fabric observer).
        self.eager_sends = 0
        self.lazy_sends = 0
        self.duplicate_payloads = 0
        self.unanswerable_requests = 0

    def bind(self, l_receive: LReceiveFn) -> None:
        """Install the gossip layer's ``L-Receive`` up-call."""
        self._l_receive = l_receive

    # -- downward path (Task 1, sender side) -----------------------------------

    def l_send(self, message_id: int, payload: Any, round_: int, peer: int) -> None:
        """``L-Send(i, d, r, p)`` from the gossip layer."""
        self.l_send_many(message_id, payload, round_, (peer,))

    def l_send_many(
        self, message_id: int, payload: Any, round_: int, peers: Sequence[int]
    ) -> None:
        """``L-Send(i, d, r, p)`` for each of ``peers``, in order.

        Eager peers get ``MSG``, lazy ones one ``IHAVE`` each (after one
        cache write), as one burst in peer order -- the packets and draws
        of one ``l_send`` per peer, in the same order.
        """
        decisions = self.strategy.eager_many(message_id, payload, round_, peers)
        burst: List[Message] = []
        msg: Optional[Tuple[int, Any, int]] = None
        msg_size = 0
        eager = lazy = 0
        for peer, is_eager in zip(peers, decisions):
            if is_eager:
                eager += 1
                if msg is None:
                    msg = (message_id, payload, round_)
                    msg_size = self._msg_size(payload)
                burst.append((peer, MSG, msg, msg_size))
                continue
            if not lazy:
                self.cache.put(message_id, payload, round_)
            lazy += 1
            burst.append((peer, IHAVE, message_id, CONTROL_PACKET_BYTES))
        self.eager_sends += eager
        self.lazy_sends += lazy
        if burst:
            self._send_many(burst)

    # -- upward path (Task 1, receiver side) ------------------------------------

    def handle(self, src: int, kind: str, wire_payload: Any) -> None:
        """Dispatch entry point for MSG/IHAVE/IWANT packets."""
        if kind == MSG:
            self._on_msg(src, wire_payload)
        elif kind == IHAVE:
            self._on_ihave(src, wire_payload)
        elif kind == IWANT:
            self._on_iwant(src, wire_payload)
        else:  # pragma: no cover - wiring error
            raise ValueError(f"unexpected scheduler message kind {kind!r}")

    def _on_msg(self, src: int, wire_payload: Tuple[int, Any, int]) -> None:
        message_id, payload, round_ = wire_payload
        if message_id in self.received:
            self.duplicate_payloads += 1
            return
        self.received.add(message_id)
        self.requests.clear(message_id)
        if self._l_receive is None:  # pragma: no cover - wiring error
            raise RuntimeError("LazyPointToPoint.bind() was never called")
        self._l_receive(message_id, payload, round_, src)

    def _on_ihave(self, src: int, message_id: int) -> None:
        if message_id not in self.received:
            self.requests.queue(message_id, src)

    def _on_iwant(self, src: int, message_id: int) -> None:
        entry = self.cache.get(message_id)
        if entry is None:
            # Cache already garbage collected; the requester will retry
            # another advertised source.
            self.unanswerable_requests += 1
            return
        payload, round_ = entry
        self._send(src, MSG, (message_id, payload, round_), self._msg_size(payload))

    # -- helpers -----------------------------------------------------------------

    def _send_request(self, message_id: int, source: int) -> None:
        self._send(source, IWANT, message_id, CONTROL_PACKET_BYTES)

    def _msg_size(self, payload: Any) -> int:
        declared = getattr(payload, "size_bytes", None)
        if declared is None:
            declared = self.config.payload_bytes
        return payload_packet_size(declared)
