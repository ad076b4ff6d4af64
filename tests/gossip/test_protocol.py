"""Gossip protocol (Fig. 2) unit tests with a scripted lower layer."""

from __future__ import annotations

import random
from typing import List

from repro.gossip.config import GossipConfig
from repro.gossip.message_ids import MessageIdSource
from repro.gossip.protocol import GossipProtocol


class FixedSampler:
    """Returns a fixed peer list regardless of fanout (up to fanout)."""

    def __init__(self, peers: List[int]):
        self._peers = peers

    def sample(self, fanout: int) -> List[int]:
        return self._peers[:fanout]

    def neighbors(self) -> List[int]:
        return list(self._peers)


def build(node=0, peers=(1, 2, 3), fanout=3, rounds=2):
    sends = []
    delivered = []
    protocol = GossipProtocol(
        node=node,
        config=GossipConfig(fanout=fanout, rounds=rounds),
        peer_sampler=FixedSampler(list(peers)),
        l_send_many=lambda i, d, r, peers: sends.extend(
            (i, d, r, p) for p in peers
        ),
        deliver=lambda i, d: delivered.append((i, d)),
        id_source=MessageIdSource(random.Random(1)),
    )
    return protocol, sends, delivered


def test_multicast_delivers_locally_then_relays():
    protocol, sends, delivered = build()
    mid = protocol.multicast("payload")
    assert delivered == [(mid, "payload")]
    assert [(r, p) for _, _, r, p in sends] == [(1, 1), (1, 2), (1, 3)]
    assert all(i == mid for i, _, _, _ in sends)


def test_receive_forwards_with_incremented_round():
    protocol, sends, delivered = build(rounds=3)
    protocol.l_receive(77, "d", 1, sender=9)
    assert delivered == [(77, "d")]
    assert [(r, p) for _, _, r, p in sends] == [(2, 1), (2, 2), (2, 3)]


def test_duplicates_are_discarded():
    protocol, sends, delivered = build()
    protocol.l_receive(5, "d", 1, sender=9)
    sends.clear()
    protocol.l_receive(5, "d", 1, sender=8)
    assert len(delivered) == 1
    assert sends == []
    assert protocol.duplicate_count == 1


def test_round_limit_stops_forwarding():
    protocol, sends, delivered = build(rounds=2)
    protocol.l_receive(5, "d", 2, sender=9)  # r == t: deliver, don't relay
    assert delivered == [(5, "d")]
    assert sends == []


def test_own_multicast_not_redelivered():
    protocol, sends, delivered = build()
    mid = protocol.multicast("x")
    protocol.l_receive(mid, "x", 1, sender=4)
    assert len(delivered) == 1


def test_fanout_respected_with_small_sampler():
    protocol, sends, _ = build(peers=(1,), fanout=5)
    protocol.multicast("x")
    assert len(sends) == 1  # sampler only knows one peer


def test_counters():
    protocol, _, _ = build()
    protocol.multicast("x")
    protocol.l_receive(123, "y", 1, sender=2)
    assert protocol.delivered_count == 2
    assert protocol.forwarded_count == 6


def test_multicast_with_id_uses_given_id():
    protocol, sends, delivered = build()
    protocol.multicast_with_id(999, "z")
    assert delivered == [(999, "z")]
    assert all(i == 999 for i, _, _, _ in sends)


def test_receipt_rounds_histogram():
    protocol, _, _ = build(rounds=5)
    protocol.multicast("x")          # round 0 (own multicast)
    protocol.l_receive(50, "a", 2, sender=1)
    protocol.l_receive(51, "b", 2, sender=1)
    protocol.l_receive(52, "c", 4, sender=2)
    assert protocol.receipt_rounds[0] == 1
    assert protocol.receipt_rounds[2] == 2
    assert protocol.receipt_rounds[4] == 1
    assert protocol.mean_receipt_round() == (0 + 2 + 2 + 4) / 4


def test_mean_receipt_round_nan_when_empty():
    protocol, _, _ = build()
    assert protocol.mean_receipt_round() != protocol.mean_receipt_round()  # NaN
