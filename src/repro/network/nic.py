"""Per-node network interface with uplink serialization.

Epidemic multicast produces *bursty* load: an eager-push node hands the
NIC ``fanout`` copies of a payload at the same instant.  On a real host
those copies leave one after another at line rate; the paper explicitly
limits virtual-node packing because this burstiness otherwise "induces
additional latency which would falsify results" (section 5.3).  The NIC
model reproduces that effect: each node owns an uplink of
``bandwidth_bytes_per_ms`` and packets queue for serialization in FIFO
order.  So one sender's packets depart in the order it handed them
over, which is what keeps a connection's deliveries in send order
(:mod:`repro.network.transport`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence


class NetworkInterface:
    """Tracks when a node's uplink is next free.

    The fabric asks :meth:`transmissions_done_at` for every burst of
    outgoing packets; the answer is when each packet's last byte leaves
    the host, i.e. the earliest moment its propagation delay can start.
    """

    def __init__(self, bandwidth_bytes_per_ms: Optional[float]) -> None:
        """``None`` bandwidth means an infinitely fast uplink."""
        if bandwidth_bytes_per_ms is not None and bandwidth_bytes_per_ms <= 0:
            raise ValueError(
                f"bandwidth must be positive, got {bandwidth_bytes_per_ms}"
            )
        self.bandwidth_bytes_per_ms = bandwidth_bytes_per_ms
        self._uplink_free_at = 0.0
        self.bytes_sent = 0
        self.packets_sent = 0
        self.busy_time_ms = 0.0

    def transmissions_done_at(
        self, now: float, sizes: Sequence[int]
    ) -> List[float]:
        """Reserve uplink time for packets handed over back to back at
        ``now``; return their serialization completion times, in order.

        A running sum: each packet starts where the previous one ended,
        with the same float additions as one reservation per packet.
        """
        self.bytes_sent += sum(sizes)
        self.packets_sent += len(sizes)
        bandwidth = self.bandwidth_bytes_per_ms
        if bandwidth is None:
            return [now] * len(sizes)
        free_at = self._uplink_free_at
        if free_at < now:
            free_at = now
        busy = self.busy_time_ms
        done: List[float] = []
        for size in sizes:
            duration = size / bandwidth
            free_at += duration
            busy += duration
            done.append(free_at)
        self._uplink_free_at = free_at
        self.busy_time_ms = busy
        return done

    @property
    def queue_delay(self) -> float:
        """How far ahead of "now" the uplink is currently booked.

        Only meaningful relative to the caller's clock; exposed for
        metrics and tests.
        """
        return self._uplink_free_at

    def reset(self) -> None:
        self._uplink_free_at = 0.0
        self.bytes_sent = 0
        self.packets_sent = 0
        self.busy_time_ms = 0.0
