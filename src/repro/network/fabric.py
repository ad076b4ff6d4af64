"""The emulated network core.

:class:`NetworkFabric` is the ModelNet analogue: protocol endpoints hand
it packets, and it applies, in order,

1. **silencing** -- a silenced node neither sends nor receives (the
   paper fails nodes "by silencing them with firewall rules", §6.3);
2. **partitions** -- a packet across the cut never leaves;
3. **uplink serialization** -- via the sender's
   :class:`~repro.network.nic.NetworkInterface`;
4. **loss** -- an independent omission probability per packet
   (0 by default; the connection transport layers FIFO reliability on
   top, like NeEM's TCP links), then the directed link's own loss;
5. **propagation delay** -- the topology model's latency for the pair,
   optionally jittered, plus gray-failure latency and service delays;
6. **the connection floor** -- the caller's lower bound on delivery.

Every packet outcome is reported to an optional :class:`PacketObserver`,
which is how the metrics recorder sees traffic without the protocol code
having to do any accounting.

Packets enter in bursts: :meth:`NetworkFabric.send_many` takes the
copies one sender hands over at one instant (a gossip forward's ``f``
copies), and :meth:`NetworkFabric.send` is a burst of one.  One loop runs
the stages above over a burst in packet order, with the same sequence
numbers, NIC departures and draws as one send per packet; a stage that
is not configured draws nothing.  The in-flight record is the delivery
event itself (:class:`SendReceipt`): its ``time`` is the delivery time
and its ``args`` hold the packet.

Beyond the paper's clean crash-stop model the fabric supports *gray*
failures (see :mod:`repro.failures.gray`): per-node slowdowns (degraded
NIC bandwidth and/or added service delay on every packet the node sends
or receives) and per-directed-link profiles (extra loss, extra latency,
packet duplication -- asymmetric links are expressed by overriding only
one direction).  All gray knobs draw randomness from a dedicated stream
so enabling them never perturbs the base fabric's seeded behaviour.
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
    heterogeneous capacity.  ``jitter_ms`` adds a uniform random delay in
    ``[0, jitter_ms]`` per packet.
    """

    bandwidth_bytes_per_ms: Optional[float] = 1250.0
    loss_probability: float = 0.0
    jitter_ms: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError(f"loss_probability out of range: {self.loss_probability}")
        if self.jitter_ms < 0:
            raise ValueError(f"jitter_ms must be >= 0, got {self.jitter_ms}")


@dataclass(frozen=True)
class LinkProfile:
    """Gray-failure overrides for one *directed* link.

    ``loss_probability`` is applied independently of (and in addition
    to) the fabric-wide loss; ``extra_latency_ms`` stretches the link's
    propagation delay; ``duplicate_probability`` delivers a second copy
    of the packet one extra propagation delay later (a retransmitting
    middlebox).  Asymmetric impairments override a single direction.
    """

    loss_probability: float = 0.0
    extra_latency_ms: float = 0.0
    duplicate_probability: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError(
                f"loss_probability out of range: {self.loss_probability}"
            )
        if self.extra_latency_ms < 0:
            raise ValueError("extra_latency_ms must be >= 0")
        if not 0.0 <= self.duplicate_probability <= 1.0:
            raise ValueError(
                f"duplicate_probability out of range: {self.duplicate_probability}"
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


def _observe_burst(
    observer: PacketObserver, packets: Sequence[Packet], now: float
) -> None:
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
        self._silenced: List[bool] = [False] * model.size
        self._partition_of: Optional[List[int]] = None
        self._rng = sim.rng.stream("network.fabric")
        # Gray-failure state; a separate stream keeps the base fabric's
        # seeded draws (loss, jitter) identical whether or not gray
        # impairments are configured.
        self._gray_rng = sim.rng.stream("network.fabric.gray")
        self._service_delay: Dict[int, float] = {}
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

    def register(self, node: int, handler: Handler) -> None:
        """Attach the receive callback for ``node``.  One per node."""
        if node in self._handlers:
            raise ValueError(f"node {node} already registered")
        self._check_node(node)
        self._handlers[node] = handler

    def set_observer(self, observer: Optional[PacketObserver]) -> None:
        self.observer = observer

    # -- failure injection ----------------------------------------------------

    def silence(self, node: int) -> None:
        """Firewall the node: all its future TX and RX are dropped."""
        self._check_node(node)
        self._silenced[node] = True

    def unsilence(self, node: int) -> None:
        self._check_node(node)
        self._silenced[node] = False

    def is_silenced(self, node: int) -> bool:
        return self._silenced[node]

    @property
    def silenced_nodes(self) -> List[int]:
        return [n for n, s in enumerate(self._silenced) if s]

    def partition(self, groups: Sequence[Sequence[int]]) -> None:
        """Split the network: nodes communicate only within their group.

        ``groups`` must cover every node exactly once.  Packets in
        flight across the cut when the partition forms are dropped at
        delivery, like a link going down under them.  Call :meth:`heal`
        to reconnect.
        """
        assignment = [-1] * self.model.size
        for index, group in enumerate(groups):
            for node in group:
                self._check_node(node)
                if assignment[node] != -1:
                    raise ValueError(f"node {node} appears in two groups")
                assignment[node] = index
        missing = [n for n, g in enumerate(assignment) if g == -1]
        if missing:
            raise ValueError(f"nodes not assigned to any group: {missing}")
        self._partition_of = assignment

    def heal(self) -> None:
        """Remove the partition; traffic flows everywhere again."""
        self._partition_of = None

    @property
    def partitioned(self) -> bool:
        return self._partition_of is not None

    def can_communicate(self, a: int, b: int) -> bool:
        """True when no partition separates ``a`` and ``b``."""
        if self._partition_of is None:
            return True
        return self._partition_of[a] == self._partition_of[b]

    # -- gray failures ---------------------------------------------------------

    def set_node_slowdown(
        self,
        node: int,
        bandwidth_factor: float = 1.0,
        service_delay_ms: float = 0.0,
    ) -> None:
        """Degrade ``node``: uplink bandwidth divided by
        ``bandwidth_factor`` and ``service_delay_ms`` added to every
        packet the node sends *or* receives (a busy host is slow on both
        paths)."""
        self._check_node(node)
        if service_delay_ms < 0:
            raise ValueError("service_delay_ms must be >= 0")
        self.nics[node].set_slowdown(bandwidth_factor)
        if service_delay_ms > 0:
            self._service_delay[node] = service_delay_ms
        else:
            self._service_delay.pop(node, None)

    def clear_node_slowdown(self, node: int) -> None:
        """Restore ``node`` to healthy speed."""
        self._check_node(node)
        self.nics[node].set_slowdown(1.0)
        self._service_delay.pop(node, None)

    def node_service_delay(self, node: int) -> float:
        return self._service_delay.get(node, 0.0)

    def set_link(self, src: int, dst: int, profile: LinkProfile) -> None:
        """Impair the *directed* link ``src -> dst`` (asymmetric allowed)."""
        self._check_node(src)
        self._check_node(dst)
        self._links[(src, dst)] = profile

    def clear_link(self, src: int, dst: int) -> None:
        self._links.pop((src, dst), None)

    def link_profile(self, src: int, dst: int) -> Optional[LinkProfile]:
        return self._links.get((src, dst))

    def clear_gray(self) -> None:
        """Remove every gray impairment (slowdowns and link profiles)."""
        for nic in self.nics:
            nic.set_slowdown(1.0)
        self._service_delay.clear()
        self._links.clear()

    # -- data path -------------------------------------------------------------

    def send(
        self, packet: Packet, min_deliver_at: float = 0.0
    ) -> Optional[SendReceipt]:
        """Inject one packet: a burst of one (see :meth:`send_many`)."""
        return self.send_many((packet,), (min_deliver_at,))[0]

    def send_many(
        self, packets: Sequence[Packet], floors: Sequence[float]
    ) -> Sequence[Optional[SendReceipt]]:
        """Inject a burst: packets one sender hands over at this instant.

        ``floors[i]`` floor-bounds packet ``i``'s delivery time (the
        connection layer's per-connection FIFO order).  Returns, per
        packet, its :class:`SendReceipt` while in flight, or ``None`` when
        it was dropped at the source.  The burst is observed once, the
        NIC is reserved for exactly the packets no partition stops, and
        one call schedules every receipt, a duplicating link's copy
        right after its original.
        """
        sim = self.sim
        now = sim.now
        sizes = []
        for packet in packets:
            packet.sent_at = now
            sizes.append(packet.size_bytes)
        observer = self.observer
        if observer is not None:
            if len(packets) == 1:
                observer.on_send(packets[0], now)
            else:
                _observe_burst(observer, packets, now)
        src = packets[0].src
        if self._silenced[src]:
            for packet in packets:
                self._drop(packet, "sender-silenced")
            return [None] * len(packets)
        partition = self._partition_of
        side = -1
        if partition is not None:
            side = partition[src]
            sizes = [p.size_bytes for p in packets if partition[p.dst] == side]
        departures: List[float] = []
        if sizes:
            departures = self.nics[src].transmissions_done_at(now, sizes)
        loss = self.config.loss_probability
        jitter = self.config.jitter_ms
        links = self._links
        service = self._service_delay
        row = self._latency_rows[src]
        reached = 0
        times = []
        args = []
        placed: List[Optional[int]] = []  # index into ``times`` per packet
        for packet, floor in zip(packets, floors):
            dst = packet.dst
            if partition is not None and partition[dst] != side:
                self._drop(packet, "partitioned")
                placed.append(None)
                continue
            departed = departures[reached]
            reached += 1
            if loss > 0.0 and self._rng.random() < loss:
                self._drop(packet, "loss")
                placed.append(None)
                continue
            link = links.get((src, dst)) if links else None
            if (
                link is not None
                and link.loss_probability > 0.0
                and self._gray_rng.random() < link.loss_probability
            ):
                self._drop(packet, "link-loss")
                placed.append(None)
                continue
            delay = row[dst]
            if jitter > 0.0:
                delay += self._rng.uniform(0.0, jitter)
            if link is not None:
                delay += link.extra_latency_ms
            if service:
                delay += service.get(src, 0.0)
                delay += service.get(dst, 0.0)
            deliver_at = departed + delay
            if deliver_at < floor:
                deliver_at = floor
            placed.append(len(times))
            times.append(deliver_at)
            args.append((packet,))
            if (
                link is not None
                and link.duplicate_probability > 0.0
                and self._gray_rng.random() < link.duplicate_probability
            ):
                # A duplicating middlebox: the copy trails the original by
                # one extra propagation delay.
                times.append(deliver_at + delay)
                args.append((packet,))
        receipts = sim.schedule_at_many(times, self._deliver, args, SendReceipt)
        if len(receipts) == len(packets) and None not in placed:
            return receipts
        return [None if at is None else receipts[at] for at in placed]

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
            self._drop(packet, "sender-silenced")
        elif silenced[dst]:
            self._drop(packet, "receiver-silenced")
        elif self._partition_of is not None and not self.can_communicate(
            packet.src, dst
        ):
            # A partition formed while the packet was in flight.
            self._drop(packet, "partitioned")
        else:
            handler = self._handlers.get(dst)
            if handler is None:
                self._drop(packet, "no-handler")
                return
            observer = self.observer
            if observer is not None:
                observer.on_deliver(packet, self.sim.now)
            handler(packet)

    def _drop(self, packet: Packet, reason: str) -> None:
        if self.observer is not None:
            self.observer.on_drop(packet, self.sim.now, reason)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.model.size:
            raise ValueError(f"node {node} outside model of size {self.model.size}")
