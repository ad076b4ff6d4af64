"""The emulated network core.

:class:`NetworkFabric` is the ModelNet analogue: protocol endpoints hand
it packets, and it applies, in order,

1. **silencing** -- a silenced node neither sends nor receives (the
   paper fails nodes "by silencing them with firewall rules", §6.3);
2. **uplink serialization** -- via the sender's
   :class:`~repro.network.nic.NetworkInterface`;
3. **loss** -- an independent omission probability per packet
   (0 by default; the connection transport layers FIFO reliability on
   top, like NeEM's TCP links);
4. **propagation delay** -- the topology model's latency for the pair,
   optionally jittered.

Every packet outcome is reported to an optional :class:`PacketObserver`,
which is how the metrics recorder sees traffic without the protocol code
having to do any accounting.

Beyond the paper's clean crash-stop model the fabric supports *gray*
failures (see :mod:`repro.failures.gray`): per-node slowdowns (degraded
NIC bandwidth and/or added service delay on every packet the node sends
or receives) and per-directed-link profiles (extra loss, extra latency,
packet duplication -- asymmetric links are expressed by overriding only
one direction).  All gray knobs draw randomness from a dedicated stream
so enabling them never perturbs the base fabric's seeded behaviour.

The healthy run -- no loss, no jitter, no gray state; an observer is
allowed -- is the short one (:attr:`NetworkFabric.fast_path`): ``send``
reports ``on_send``, reserves the NIC, indexes the latency row and
schedules the delivery.  Any impairment routes sends through
``_send_full``, the one path that draws randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.network.message import Packet, SlotRecord
from repro.network.nic import NetworkInterface
from repro.sim.engine import Simulator
from repro.sim.events import EventHandle
from repro.topology.routing import ClientNetworkModel


class PacketObserver(Protocol):
    """Sink for fabric-level traffic events (implemented by metrics)."""

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


class SendReceipt(SlotRecord):
    """Tracks one in-flight packet so it can be purged mid-flight."""

    __slots__ = ("packet", "handle", "deliver_at")

    def __init__(
        self, packet: Packet, handle: EventHandle, deliver_at: float
    ) -> None:
        self.packet = packet
        self.handle = handle
        self.deliver_at = deliver_at


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
        # Fast-path state: the latency matrix is immutable after model
        # construction, so rows can be indexed directly, and the healthy
        # configuration is precomputed into one boolean (see :meth:`send`).
        self._latency_rows = model.latency_ms
        self._refresh_fast_path()

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

    @property
    def fast_path(self) -> bool:
        """True while healthy sends take the slim branch of :meth:`send`."""
        return self._fast_path

    def _refresh_fast_path(self) -> None:
        """Recompute the per-send fast-path predicate.

        The fast path is taken when nothing on the send path can draw
        randomness or impose gray delays (an observer does neither): the
        common healthy-network case then does one NIC reservation, one
        latency-row lookup and one ``schedule_at``.  Every mutator of the
        inputs below re-invokes this, so :meth:`send` itself checks a
        single boolean.
        """
        self._fast_path = (
            self.config.loss_probability == 0.0
            and self.config.jitter_ms == 0.0
            and not self._links
            and not self._service_delay
        )

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
        self._refresh_fast_path()

    def clear_node_slowdown(self, node: int) -> None:
        """Restore ``node`` to healthy speed."""
        self._check_node(node)
        self.nics[node].set_slowdown(1.0)
        self._service_delay.pop(node, None)
        self._refresh_fast_path()

    def node_service_delay(self, node: int) -> float:
        return self._service_delay.get(node, 0.0)

    def set_link(self, src: int, dst: int, profile: LinkProfile) -> None:
        """Impair the *directed* link ``src -> dst`` (asymmetric allowed)."""
        self._check_node(src)
        self._check_node(dst)
        self._links[(src, dst)] = profile
        self._refresh_fast_path()

    def clear_link(self, src: int, dst: int) -> None:
        self._links.pop((src, dst), None)
        self._refresh_fast_path()

    def link_profile(self, src: int, dst: int) -> Optional[LinkProfile]:
        return self._links.get((src, dst))

    def clear_gray(self) -> None:
        """Remove every gray impairment (slowdowns and link profiles)."""
        for nic in self.nics:
            nic.set_slowdown(1.0)
        self._service_delay.clear()
        self._links.clear()
        self._refresh_fast_path()

    # -- data path -------------------------------------------------------------

    def send(
        self, packet: Packet, min_deliver_at: float = 0.0
    ) -> Optional["SendReceipt"]:
        """Inject a packet.

        ``min_deliver_at`` floor-bounds the delivery time; the connection
        layer uses it to enforce per-connection FIFO ordering.  Returns a
        :class:`SendReceipt` for in-flight packets, or ``None`` when the
        packet was dropped at the source (silenced sender or loss).

        The healthy common case (:meth:`_refresh_fast_path`) takes a slim
        branch that performs exactly the same arithmetic as the full path
        with every inactive stage skipped.  That configuration draws no
        randomness on the full path either, so the two cannot diverge;
        silenced and partitioned sends stay on the full path, so every
        packet is observed exactly once.
        """
        sim = self.sim
        now = sim.now
        packet.sent_at = now
        src = packet.src
        if (
            self._fast_path
            and self._partition_of is None
            and not self._silenced[src]
        ):
            observer = self.observer
            if observer is not None:
                observer.on_send(packet, now)
            deliver_at = self.nics[src].transmission_done_at(
                now, packet.size_bytes
            ) + self._latency_rows[src][packet.dst]
            if deliver_at < min_deliver_at:
                deliver_at = min_deliver_at
            handle = sim.schedule_at(deliver_at, self._deliver, packet)
            return SendReceipt(packet, handle, deliver_at)
        return self._send_full(packet, now, min_deliver_at)

    def _send_full(
        self, packet: Packet, now: float, min_deliver_at: float
    ) -> Optional["SendReceipt"]:
        """The full send path: observers, loss, jitter, gray failures."""
        if self.observer is not None:
            self.observer.on_send(packet, now)

        if self._silenced[packet.src]:
            self._drop(packet, "sender-silenced")
            return None
        if not self.can_communicate(packet.src, packet.dst):
            self._drop(packet, "partitioned")
            return None
        serialized_at = self.nics[packet.src].transmission_done_at(
            now, packet.size_bytes
        )
        if (
            self.config.loss_probability > 0.0
            and self._rng.random() < self.config.loss_probability
        ):
            self._drop(packet, "loss")
            return None
        # Emptiness cached by truthiness: the common healthy case skips
        # the tuple allocation and dict probe entirely.
        link = (
            self._links.get((packet.src, packet.dst)) if self._links else None
        )
        if (
            link is not None
            and link.loss_probability > 0.0
            and self._gray_rng.random() < link.loss_probability
        ):
            self._drop(packet, "link-loss")
            return None
        delay = self.model.latency(packet.src, packet.dst)
        if self.config.jitter_ms > 0.0:
            delay += self._rng.uniform(0.0, self.config.jitter_ms)
        if link is not None:
            delay += link.extra_latency_ms
        if self._service_delay:
            delay += self._service_delay.get(packet.src, 0.0)
            delay += self._service_delay.get(packet.dst, 0.0)
        deliver_at = max(serialized_at + delay, min_deliver_at)
        handle = self.sim.schedule_at(deliver_at, self._deliver, packet)
        if (
            link is not None
            and link.duplicate_probability > 0.0
            and self._gray_rng.random() < link.duplicate_probability
        ):
            # A duplicating middlebox: the copy trails the original by
            # one extra propagation delay.
            self.sim.schedule_at(deliver_at + delay, self._deliver, packet)
        return SendReceipt(packet, handle, deliver_at)

    def abort(self, receipt: "SendReceipt", reason: str = "purged") -> None:
        """Cancel an in-flight packet (connection-buffer purging)."""
        if receipt.handle.pending:
            receipt.handle.cancel()
            self._drop(receipt.packet, reason)

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
