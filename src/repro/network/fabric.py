"""The emulated network core.

:class:`NetworkFabric` is the ModelNet analogue: protocol endpoints hand
it packets, and it applies, in order,

1. **silencing** -- a silenced node neither sends nor receives (the
   paper fails nodes "by silencing them with firewall rules", §6.3);
2. **uplink serialization** -- via the sender's
   :class:`~repro.network.nic.NetworkInterface`;
3. **link loss** -- a directed link's own omission probability
   (:class:`LinkProfile`; no link is lossy by default, and the
   connection transport layers FIFO reliability on top, like NeEM's
   TCP links);
4. **propagation delay** -- the topology model's latency for the pair.

That is the whole fault model: crash-stop silencing plus Bernoulli loss
per directed link, exactly what the slot kernel's
:func:`~repro.megasim.adapter.compile_faults` models.  Link-loss draws
come from their own ``network.fabric.gray`` stream, so impairing links
never perturbs any other component's seeded behaviour.

Every packet outcome is reported to an optional :class:`PacketObserver`,
which is how the metrics recorder sees traffic without the protocol code
having to do any accounting.

Packets enter in bursts: :meth:`NetworkFabric.send_many` takes the
copies one sender hands over at one instant (a gossip forward's ``f``
copies), and :meth:`NetworkFabric.send` is a burst of one.  One loop runs
the stages above over a burst in packet order -- reserving the sender's
NIC, drawing link loss and adding the pair's latency -- with the same
sequence numbers, NIC departures and draws as one send per packet; a
link without loss draws nothing.  The in-flight record is the delivery
event itself (:class:`SendReceipt`): its ``time`` is the delivery time
and its ``args`` hold the packet.  One sender's NIC is FIFO and a pair's
delay is one matrix entry, so the packets of one directed pair are
delivered in send order, at non-decreasing times.  That is what lets a
connection (:mod:`repro.network.transport`) hold its in-flight receipts
only: a delivered one leaves at delivery, through the receive callback,
and one dropped on arrival through the ``lost`` callback of
:meth:`NetworkFabric.register`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.network.message import Packet
from repro.network.nic import NetworkInterface
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.topology.routing import ClientNetworkModel


class PacketObserver(Protocol):
    """Sink for fabric-level traffic events (implemented by metrics).

    A burst of several packets is reported through ``on_send_burst``
    when the observer has it, else through one ``on_send`` per packet.
    """

    def on_send(self, packet: Packet, now: float) -> None: ...

    def on_deliver(self, packet: Packet, now: float) -> None: ...

    def on_drop(self, packet: Packet, now: float, reason: str) -> None: ...


@dataclass(frozen=True)
class FabricConfig:
    """Fabric-wide behaviour knobs.

    ``bandwidth_bytes_per_ms`` is the default per-node uplink; 1250
    bytes/ms equals 10 Mbit/s, a plausible 2007 broadband uplink that
    keeps eager bursts cheap-but-not-free.  Per-node overrides model
    heterogeneous capacity.
    """

    bandwidth_bytes_per_ms: Optional[float] = 1250.0


@dataclass(frozen=True)
class LinkProfile:
    """The loss of one *directed* link: asymmetric impairments override
    a single direction."""

    loss_probability: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError(
                f"loss_probability out of range: {self.loss_probability}"
            )


Handler = Callable[[Packet], None]


class SendReceipt(Event):
    """An in-flight packet: the delivery event scheduled for it.

    ``args`` is ``(packet,)`` and ``time`` the delivery time; a receipt
    is its own cancellation handle, so purging one mid-flight is
    :meth:`NetworkFabric.abort`.
    """

    __slots__ = ()

    @property
    def packet(self) -> Packet:
        return self.args[0]

    @property
    def deliver_at(self) -> float:
        return self.time

    @property
    def handle(self) -> "SendReceipt":
        return self


def _observe(
    observer: PacketObserver, packets: Sequence[Packet], now: float
) -> None:
    if len(packets) > 1:
        burst = getattr(observer, "on_send_burst", None)
        if burst is not None:
            burst(packets, now)
            return
    for packet in packets:
        observer.on_send(packet, now)


class NetworkFabric:
    """Routes packets between client nodes of a topology model."""

    def __init__(
        self,
        sim: Simulator,
        model: ClientNetworkModel,
        config: Optional[FabricConfig] = None,
        node_bandwidth: Optional[Dict[int, Optional[float]]] = None,
    ) -> None:
        self.sim = sim
        self.model = model
        self.config = config or FabricConfig()
        self._handlers: Dict[int, Handler] = {}
        self._lost: Dict[int, Handler] = {}
        self._silenced: List[bool] = [False] * model.size
        self._gray_rng = sim.rng.stream("network.fabric.gray")
        self._links: Dict[Tuple[int, int], LinkProfile] = {}
        self.observer: Optional[PacketObserver] = None
        overrides = node_bandwidth or {}
        self.nics: List[NetworkInterface] = [
            NetworkInterface(
                overrides.get(node, self.config.bandwidth_bytes_per_ms)
            )
            for node in range(model.size)
        ]
        # The latency matrix is immutable after model construction, so
        # rows can be indexed directly.
        self._latency_rows = model.latency_ms

    @property
    def size(self) -> int:
        return self.model.size

    # -- wiring -------------------------------------------------------------

    def register(
        self, node: int, handler: Handler, lost: Optional[Handler] = None
    ) -> None:
        """Attach the receive callback for ``node``.  One per node.

        ``lost``, when given, is called instead of ``handler`` for a
        packet addressed to ``node`` that was in flight and is dropped on
        arrival because one of its ends was silenced meanwhile.
        """
        if node in self._handlers:
            raise ValueError(f"node {node} already registered")
        self._check_node(node)
        self._handlers[node] = handler
        if lost is not None:
            self._lost[node] = lost

    def set_observer(self, observer: Optional[PacketObserver]) -> None:
        self.observer = observer

    # -- failure injection ----------------------------------------------------

    def silence(self, node: int) -> None:
        """Firewall the node: all its future TX and RX are dropped."""
        self._check_node(node)
        self._silenced[node] = True

    def is_silenced(self, node: int) -> bool:
        return self._silenced[node]

    def set_link(self, src: int, dst: int, profile: LinkProfile) -> None:
        """Impair the *directed* link ``src -> dst`` (asymmetric allowed)."""
        self._check_node(src)
        self._check_node(dst)
        self._links[(src, dst)] = profile

    def link_profile(self, src: int, dst: int) -> Optional[LinkProfile]:
        return self._links.get((src, dst))

    # -- data path -------------------------------------------------------------

    def send(self, packet: Packet) -> Optional[SendReceipt]:
        """Inject one packet: a burst of one (see :meth:`send_many`)."""
        return self.send_many((packet,))[0]

    def send_many(
        self, packets: Sequence[Packet]
    ) -> Sequence[Optional[SendReceipt]]:
        """Inject a burst: packets one sender hands over at this instant.

        Returns, per packet, its :class:`SendReceipt` while in flight, or
        ``None`` when it was dropped at the source.  One loop reserves
        the NIC for every packet, makes the link-loss draws and computes
        the delivery times; then the burst is observed once and one call
        schedules every receipt.
        """
        sim = self.sim
        now = sim.now
        observer = self.observer
        src = packets[0].src
        if self._silenced[src]:
            for packet in packets:
                packet.sent_at = now
            if observer is not None:
                _observe(observer, packets, now)
            for packet in packets:
                self._drop(packet, "sender-silenced")
            return [None] * len(packets)
        nic = self.nics[src]
        bandwidth = nic.bandwidth_bytes_per_ms
        free_at = nic.uplink_free_at
        if free_at < now:
            free_at = now
        busy = nic.busy_time_ms
        sent_bytes = 0
        links = self._links
        row = self._latency_rows[src]
        times = []
        args = []
        lost: List[int] = []  # link-loss victims, by index in ``packets``
        for packet in packets:
            packet.sent_at = now
            size = packet.size_bytes
            sent_bytes += size
            if bandwidth is not None:
                # The uplink is FIFO: a running sum of serialization
                # times, each packet leaving where the previous one ended.
                duration = size / bandwidth
                free_at += duration
                busy += duration
            dst = packet.dst
            if links:
                link = links.get((src, dst))
                if (
                    link is not None
                    and link.loss_probability > 0.0
                    and self._gray_rng.random() < link.loss_probability
                ):
                    lost.append(len(times) + len(lost))
                    continue
            times.append(free_at + row[dst])
            args.append((packet,))
        nic.bytes_sent += sent_bytes
        nic.packets_sent += len(packets)
        if bandwidth is not None:
            nic.uplink_free_at = free_at
            nic.busy_time_ms = busy
        if observer is not None:
            if len(packets) == 1:
                observer.on_send(packets[0], now)
            else:
                _observe(observer, packets, now)
        if not lost:
            return sim.schedule_at_many(times, self._deliver, args, SendReceipt)
        for index in lost:
            self._drop(packets[index], "link-loss")
        placed: List[Optional[SendReceipt]] = list(
            sim.schedule_at_many(times, self._deliver, args, SendReceipt)
        )
        for index in lost:
            placed.insert(index, None)
        return placed

    def abort(self, receipt: SendReceipt, reason: str = "purged") -> None:
        """Cancel an in-flight packet (connection-buffer purging)."""
        if not (receipt.fired or receipt.cancelled):
            receipt.cancel()
            self._drop(receipt.args[0], reason)

    def _deliver(self, packet: Packet) -> None:
        silenced = self._silenced
        dst = packet.dst
        if silenced[packet.src]:
            # The sender was firewalled while the packet was in flight; a
            # firewall drops it at the source network, so it never arrives.
            self._drop_arrival(packet, "sender-silenced")
        elif silenced[dst]:
            self._drop_arrival(packet, "receiver-silenced")
        else:
            handler = self._handlers.get(dst)
            if handler is None:
                self._drop(packet, "no-handler")
                return
            observer = self.observer
            if observer is not None:
                observer.on_deliver(packet, self.sim.now)
            handler(packet)

    def _drop_arrival(self, packet: Packet, reason: str) -> None:
        self._drop(packet, reason)
        lost = self._lost.get(packet.dst)
        if lost is not None:
            lost(packet)

    def _drop(self, packet: Packet, reason: str) -> None:
        if self.observer is not None:
            self.observer.on_drop(packet, self.sim.now, reason)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.model.size:
            raise ValueError(f"node {node} outside model of size {self.model.size}")
