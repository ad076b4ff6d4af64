"""NIC serialization tests."""

from __future__ import annotations

import pytest

from repro.network.nic import NetworkInterface


def test_serialization_delay():
    nic = NetworkInterface(bandwidth_bytes_per_ms=100.0)
    (done,) = nic.transmissions_done_at(now=0.0, sizes=[500])
    assert done == pytest.approx(5.0)


def test_burst_queues_fifo():
    """A fanout burst serializes back-to-back: the key effect the paper's
    section 5.3 worries about."""
    nic = NetworkInterface(bandwidth_bytes_per_ms=100.0)
    burst = nic.transmissions_done_at(0.0, [300, 300])
    (third,) = nic.transmissions_done_at(0.0, [300])
    assert [*burst, third] == [
        pytest.approx(3.0), pytest.approx(6.0), pytest.approx(9.0)
    ]


def test_idle_gap_resets_queue():
    nic = NetworkInterface(bandwidth_bytes_per_ms=100.0)
    nic.transmissions_done_at(0.0, [100])  # done at 1.0
    assert nic.transmissions_done_at(50.0, [100]) == [pytest.approx(51.0)]


def test_infinite_bandwidth_is_instant():
    nic = NetworkInterface(bandwidth_bytes_per_ms=None)
    assert nic.transmissions_done_at(7.0, [10**9, 1]) == [7.0, 7.0]


def test_counters_accumulate():
    nic = NetworkInterface(bandwidth_bytes_per_ms=100.0)
    nic.transmissions_done_at(0.0, [100])
    nic.transmissions_done_at(0.0, [200])
    assert nic.bytes_sent == 300
    assert nic.packets_sent == 2
    assert nic.busy_time_ms == pytest.approx(3.0)


def test_reset():
    nic = NetworkInterface(bandwidth_bytes_per_ms=100.0)
    nic.transmissions_done_at(0.0, [100])
    nic.reset()
    assert nic.bytes_sent == 0
    assert nic.transmissions_done_at(0.0, [100]) == [pytest.approx(1.0)]


def test_rejects_nonpositive_bandwidth():
    with pytest.raises(ValueError):
        NetworkInterface(bandwidth_bytes_per_ms=0.0)
