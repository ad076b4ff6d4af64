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
(:mod:`repro.network.transport`, where a connection holds its in-flight
receipts and a delivered one leaves at delivery).
"""

from __future__ import annotations

from typing import Optional


class NetworkInterface:
    """A node's uplink: when it is next free, and what it has sent.

    :meth:`repro.network.fabric.NetworkFabric.send_many` reserves it in
    the same loop that draws link loss and computes delivery times: each
    packet of a burst starts serializing where the previous one ended,
    or at the send instant if the uplink was idle, and takes
    ``size_bytes / bandwidth_bytes_per_ms``.  That running sum advances
    :attr:`uplink_free_at` and :attr:`busy_time_ms`; an infinitely fast
    uplink (``None`` bandwidth) only counts.
    """

    def __init__(self, bandwidth_bytes_per_ms: Optional[float]) -> None:
        """``None`` bandwidth means an infinitely fast uplink."""
        if bandwidth_bytes_per_ms is not None and bandwidth_bytes_per_ms <= 0:
            raise ValueError(
                f"bandwidth must be positive, got {bandwidth_bytes_per_ms}"
            )
        self.bandwidth_bytes_per_ms = bandwidth_bytes_per_ms
        #: When the last reserved byte leaves the host.
        self.uplink_free_at = 0.0
        self.bytes_sent = 0
        self.packets_sent = 0
        self.busy_time_ms = 0.0

    def reset(self) -> None:
        self.uplink_free_at = 0.0
        self.bytes_sent = 0
        self.packets_sent = 0
        self.busy_time_ms = 0.0
