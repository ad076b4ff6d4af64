"""NIC serialization tests, through the fabric that reserves the uplink."""

from __future__ import annotations

from typing import List, Optional

import pytest

from repro.network.fabric import FabricConfig, NetworkFabric
from repro.network.message import Packet
from repro.network.nic import NetworkInterface
from repro.sim.engine import Simulator
from repro.topology.simple import complete_topology

LATENCY_MS = 50.0


def _fabric(bandwidth: Optional[float]) -> NetworkFabric:
    return NetworkFabric(
        Simulator(seed=0),
        complete_topology(2, latency_ms=LATENCY_MS),
        FabricConfig(bandwidth_bytes_per_ms=bandwidth),
    )


def _done_at(fabric: NetworkFabric, now: float, sizes: List[int]) -> List[float]:
    """Node 0 hands ``sizes`` over back to back at ``now``; when each
    packet's last byte leaves the host."""
    fabric.sim.run(until=now)
    receipts = fabric.send_many([Packet(0, 1, "MSG", None, size) for size in sizes])
    return [receipt.time - LATENCY_MS for receipt in receipts]


def test_serialization_delay():
    (done,) = _done_at(_fabric(100.0), now=0.0, sizes=[500])
    assert done == pytest.approx(5.0)


def test_burst_queues_fifo():
    """A fanout burst serializes back-to-back: the key effect the paper's
    section 5.3 worries about."""
    fabric = _fabric(100.0)
    burst = _done_at(fabric, 0.0, [300, 300])
    (third,) = _done_at(fabric, 0.0, [300])
    assert [*burst, third] == [
        pytest.approx(3.0), pytest.approx(6.0), pytest.approx(9.0)
    ]


def test_idle_gap_resets_queue():
    fabric = _fabric(100.0)
    _done_at(fabric, 0.0, [100])  # done at 1.0
    assert _done_at(fabric, 50.0, [100]) == [pytest.approx(51.0)]


def test_infinite_bandwidth_is_instant():
    fabric = _fabric(None)
    assert _done_at(fabric, 7.0, [10**9, 1]) == [7.0, 7.0]
    assert fabric.nics[0].uplink_free_at == 0.0


def test_counters_accumulate():
    fabric = _fabric(100.0)
    _done_at(fabric, 0.0, [100])
    _done_at(fabric, 0.0, [200])
    nic = fabric.nics[0]
    assert nic.bytes_sent == 300
    assert nic.packets_sent == 2
    assert nic.busy_time_ms == pytest.approx(3.0)
    assert nic.uplink_free_at == pytest.approx(3.0)


def test_reset():
    fabric = _fabric(100.0)
    _done_at(fabric, 0.0, [100])
    fabric.nics[0].reset()
    assert fabric.nics[0].bytes_sent == 0
    assert _done_at(fabric, 0.0, [100]) == [pytest.approx(1.0)]


def test_rejects_nonpositive_bandwidth():
    with pytest.raises(ValueError):
        NetworkInterface(bandwidth_bytes_per_ms=0.0)
