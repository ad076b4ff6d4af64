"""Emulated network fabric (ModelNet analogue).

The paper runs unmodified protocol code over ModelNet, which imposes the
latency/bandwidth/loss of an Inet model on real traffic.  This package
plays the same role for simulated protocol code:

- :mod:`repro.network.message` -- packets and wire-size accounting
  (256 B payloads + 24 B NeEM header + fixed per-packet overhead,
  section 5.3).
- :mod:`repro.network.nic` -- per-node uplink serialization: gossip's
  bursty fanout pays real transmission delay, which is what made the
  authors limit virtual-node packing (section 5.3).
- :mod:`repro.network.fabric` -- the core: routes packets between client
  nodes with model latencies, loss injection, and node silencing
  (the paper's firewall-rule failure mechanism).
- :mod:`repro.network.transport` -- the NeEM-style connection layer
  (FIFO, buffered, drop-oldest purging) and its endpoints for protocol
  code.
"""

from repro.network.fabric import FabricConfig, NetworkFabric, PacketObserver
from repro.network.message import (
    CONTROL_OVERHEAD_BYTES,
    NEEM_HEADER_BYTES,
    PACKET_OVERHEAD_BYTES,
    Packet,
)
from repro.network.nic import NetworkInterface
from repro.network.transport import ConnectionTransport, Endpoint

__all__ = [
    "FabricConfig",
    "NetworkFabric",
    "PacketObserver",
    "Packet",
    "NEEM_HEADER_BYTES",
    "CONTROL_OVERHEAD_BYTES",
    "PACKET_OVERHEAD_BYTES",
    "NetworkInterface",
    "ConnectionTransport",
    "Endpoint",
]
