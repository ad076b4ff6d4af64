"""Line-by-line conformance with the paper's pseudocode.

Figs. 2 and 3 are short enough to check mechanically; each test below
names the lines it covers and drives the real implementation through a
scripted scenario.  (Broader behaviour is covered elsewhere; this file
is the auditable mapping between paper text and code.)
"""

from __future__ import annotations

import random
from typing import List

from repro.gossip.config import GossipConfig
from repro.gossip.message_ids import MessageIdSource
from repro.gossip.protocol import GossipProtocol
from repro.scheduler.interfaces import SchedulerConfig
from repro.scheduler.lazy_point_to_point import IHAVE, IWANT, MSG, LazyPointToPoint
from repro.sim.engine import Simulator
from repro.strategies.flat import PureLazyStrategy
from tests.gossip.test_protocol import FixedSampler


def build_gossip(fanout=2, rounds=3, peers=(1, 2)):
    sends: List[tuple] = []
    delivered: List[tuple] = []
    protocol = GossipProtocol(
        node=0,
        config=GossipConfig(fanout=fanout, rounds=rounds),
        peer_sampler=FixedSampler(list(peers)),
        l_send_many=lambda i, d, r, peers: sends.extend(
            (i, d, r, p) for p in peers
        ),
        deliver=lambda i, d: delivered.append((i, d)),
        id_source=MessageIdSource(random.Random(1)),
    )
    return protocol, sends, delivered


class TestFig2Gossip:
    def test_line_2_known_set_initially_empty(self):
        protocol, _, _ = build_gossip()
        assert len(protocol.known) == 0

    def test_lines_3_4_multicast_forwards_with_round_zero(self):
        """Multicast(d): Forward(MkId(), d, 0) -- the origin's relayed
        copies therefore carry round 1 (line 11's r+1)."""
        protocol, sends, _ = build_gossip()
        protocol.multicast("d")
        assert all(r == 1 for _, _, r, _ in sends)

    def test_line_6_deliver_happens_before_relay(self):
        protocol, sends, delivered = build_gossip()
        order = []
        protocol.deliver = lambda i, d: order.append("deliver")
        protocol.l_send_many = lambda *a: order.append("send")
        protocol.multicast("d")
        assert order[0] == "deliver"

    def test_line_7_id_recorded_in_known_set(self):
        protocol, _, _ = build_gossip()
        mid = protocol.multicast("d")
        assert mid in protocol.known

    def test_line_8_no_relay_at_round_limit(self):
        """if r < t: with r == t the message is delivered, not relayed."""
        protocol, sends, delivered = build_gossip(rounds=3)
        protocol.l_receive(9, "d", 3, sender=5)
        assert delivered and not sends

    def test_lines_9_to_11_fanout_targets_each_get_r_plus_1(self):
        protocol, sends, _ = build_gossip(fanout=2, peers=(7, 8, 9))
        protocol.l_receive(9, "d", 1, sender=5)
        assert [(p, r) for _, _, r, p in sends] == [(7, 2), (8, 2)]

    def test_lines_12_to_14_duplicate_check_before_forward(self):
        protocol, sends, delivered = build_gossip()
        protocol.l_receive(9, "d", 1, sender=5)
        sends.clear()
        protocol.l_receive(9, "d", 1, sender=6)
        assert len(delivered) == 1 and not sends


class TestFig3Scheduler:
    def setup_method(self):
        self.sim = Simulator(seed=2)
        self.sends: List[tuple] = []
        self.received: List[tuple] = []
        self.module = LazyPointToPoint(
            self.sim,
            node=0,
            strategy=PureLazyStrategy(retry_period_ms=100.0),
            send=self.send,
            send_many=self.send_many,
            config=SchedulerConfig(retry_period_ms=100.0),
        )
        self.module.bind(lambda *args: self.received.append(args))

    def send(self, dst, kind, payload, size):
        self.sends.append((dst, kind, payload))

    def send_many(self, messages):
        for message in messages:
            self.send(*message)

    def test_lines_19_to_24_lazy_branch_caches_and_advertises(self):
        """Eager? false: C[i] = (d, r); Send(IHAVE(i), p)."""
        self.module.l_send(1, "data", 2, peer=5)
        assert self.module.cache.get(1) == ("data", 2)
        assert self.sends == [(5, IHAVE, 1)]

    def test_lines_20_21_eager_branch_sends_msg(self):
        from repro.strategies.flat import PureEagerStrategy

        module = LazyPointToPoint(
            self.sim, 0, PureEagerStrategy(), self.send, self.send_many
        )
        module.l_send(1, "data", 2, peer=5)
        assert self.sends == [(5, MSG, (1, "data", 2))]

    def test_lines_25_to_27_ihave_queues_unknown_only(self):
        self.module.handle(9, IHAVE, 1)
        assert self.module.requests.pending_sources(1) == [9]
        self.module.handle(8, MSG, (1, "d", 1))
        self.module.handle(7, IHAVE, 1)  # i in R: ignored
        assert self.module.requests.pending_sources(1) == []

    def test_lines_28_to_32_msg_updates_r_clears_and_hands_up(self):
        self.module.handle(9, IHAVE, 1)
        self.module.handle(8, MSG, (1, "d", 4))
        assert 1 in self.module.received            # line 30: R = R u {i}
        assert self.module.requests.pending_sources(1) == []  # line 31
        assert self.received == [(1, "d", 4, 8)]    # line 32: L-Receive

    def test_lines_33_to_35_iwant_answered_from_cache(self):
        self.module.l_send(1, "data", 2, peer=5)
        self.sends.clear()
        self.module.handle(6, IWANT, 1)
        assert self.sends == [(6, MSG, (1, "data", 2))]

    def test_lines_36_to_39_schedule_next_emits_requests(self):
        """Task 2: (i, s) = ScheduleNext(); Send(IWANT(i), s)."""
        self.module.handle(9, IHAVE, 1)
        self.sim.run()
        assert (9, IWANT, 1) in self.sends
