"""Raw measurement collection.

One recorder observes a whole run.  It hangs off the network fabric as
its :class:`~repro.network.fabric.PacketObserver` (packet counts, bytes,
per-link payload transmissions) and is fed application events by the
experiment runner (multicast sent / message delivered).  ``recording``
gates everything, so warm-up traffic -- overlay shuffles, monitor
probes, ranking convergence -- never pollutes measurements, matching the
paper's "immediately before starting to log message deliveries"
discipline.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Optional, Tuple

from repro.network.message import Packet

#: Packet kinds whose transmissions count as payload traffic.  "MSG" is
#: the gossip stack's; the baselines contribute their own kinds so the
#: same recorder compares them fairly.
PAYLOAD_KINDS = frozenset({"MSG", "TREE_MSG", "PULL_DATA"})

#: Backwards-compatible alias for the gossip payload kind.
PAYLOAD_KIND = "MSG"


class MetricsRecorder:
    """Collects packet- and application-level events of one run."""

    def __init__(self) -> None:
        self.recording = True
        # Packet-level (fabric observer).
        self.sent_packets: Counter = Counter()
        self.sent_bytes: Counter = Counter()
        self.delivered_packets: Counter = Counter()
        self.dropped_packets: Counter = Counter()
        self.link_payload_counts: Counter = Counter()
        self.link_payload_bytes: Counter = Counter()
        self.node_payload_sent: Counter = Counter()
        self.node_payload_received: Counter = Counter()
        # Application-level.
        self.multicasts: Dict[int, Tuple[int, float]] = {}
        self.deliveries: Dict[int, Dict[int, float]] = defaultdict(dict)
        # Recovery-pipeline counters (retries, stalls, blacklist skips,
        # restarts, ...), harvested from node state at the end of a run
        # by the experiment runner -- not gated by ``recording`` since
        # they are totals, not events.
        self.recovery: Counter = Counter()

    # -- gating ---------------------------------------------------------------

    def enable(self) -> None:
        self.recording = True

    def disable(self) -> None:
        self.recording = False

    # -- PacketObserver ---------------------------------------------------------

    def on_send(self, packet: Packet, now: float) -> None:
        if not self.recording:
            return
        kind = packet.kind
        size = packet.size_bytes
        self.sent_packets[kind] += 1
        self.sent_bytes[kind] += size
        if kind in PAYLOAD_KINDS:
            src = packet.src
            link = (src, packet.dst)
            self.link_payload_counts[link] += 1
            self.link_payload_bytes[link] += size
            self.node_payload_sent[src] += 1

    def on_deliver(self, packet: Packet, now: float) -> None:
        if not self.recording:
            return
        self.delivered_packets[packet.kind] += 1
        if packet.kind in PAYLOAD_KINDS:
            self.node_payload_received[packet.dst] += 1

    def on_drop(self, packet: Packet, now: float, reason: str) -> None:
        if not self.recording:
            return
        self.dropped_packets[reason] += 1

    # -- application events --------------------------------------------------------

    def on_multicast(self, message_id: int, origin: int, now: float) -> None:
        if not self.recording:
            return
        self.multicasts[message_id] = (origin, now)

    def on_app_deliver(self, node: int, message_id: int, now: float) -> None:
        if not self.recording:
            return
        if message_id not in self.multicasts:
            # A warm-up message straggling into the measurement window.
            return
        per_node = self.deliveries[message_id]
        if node not in per_node:
            per_node[node] = now

    def record_recovery(self, name: str, count: int = 1) -> None:
        """Accumulate a recovery-pipeline counter (e.g. ``retries``)."""
        self.recovery[name] += count

    # -- simple aggregates ------------------------------------------------------------

    @property
    def message_count(self) -> int:
        return len(self.multicasts)

    @property
    def delivery_count(self) -> int:
        return sum(len(per_node) for per_node in self.deliveries.values())

    @property
    def payload_transmissions(self) -> int:
        """Total MSG packets sent during the measurement window."""
        return sum(self.sent_packets[k] for k in sorted(PAYLOAD_KINDS))

    def origin_of(self, message_id: int) -> Optional[int]:
        entry = self.multicasts.get(message_id)
        return entry[0] if entry else None
