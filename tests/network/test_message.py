"""Packet and wire-size accounting tests."""

from __future__ import annotations

import pytest

from repro.network.message import (
    CONTROL_OVERHEAD_BYTES,
    CONTROL_PACKET_BYTES,
    NEEM_HEADER_BYTES,
    PACKET_OVERHEAD_BYTES,
    Packet,
    payload_packet_size,
)


def test_paper_payload_sizing():
    """256 B application payload + 24 B NeEM header (section 5.3)."""
    assert NEEM_HEADER_BYTES == 24
    assert payload_packet_size(256) == 256 + 24 + PACKET_OVERHEAD_BYTES


def test_control_packet_smaller_than_payload():
    assert CONTROL_PACKET_BYTES < payload_packet_size(256)
    assert CONTROL_PACKET_BYTES == CONTROL_OVERHEAD_BYTES + PACKET_OVERHEAD_BYTES


def test_packet_ids_are_unique():
    a = Packet(src=0, dst=1, kind="MSG", payload=None, size_bytes=10)
    b = Packet(src=0, dst=1, kind="MSG", payload=None, size_bytes=10)
    assert a.packet_id != b.packet_id


def test_packet_validation():
    with pytest.raises(ValueError):
        Packet(src=0, dst=0, kind="MSG", payload=None, size_bytes=10)
    with pytest.raises(ValueError):
        Packet(src=0, dst=1, kind="MSG", payload=None, size_bytes=0)
