"""Lazy Point-to-Point module (Fig. 3) tests with a scripted transport."""

from __future__ import annotations

from typing import Any, List, Tuple

import pytest

from repro.network.message import control_packet_size, payload_packet_size
from repro.scheduler.interfaces import SchedulerConfig
from repro.scheduler.lazy_point_to_point import IHAVE, IWANT, MSG, LazyPointToPoint
from repro.strategies.flat import PureEagerStrategy, PureLazyStrategy


def build(sim, strategy, config=None):
    sends: List[Tuple[int, str, Any, int]] = []
    received: List[Tuple[int, Any, int, int]] = []
    module = LazyPointToPoint(
        sim,
        node=0,
        strategy=strategy,
        send=lambda dst, kind, payload, size: sends.append((dst, kind, payload, size)),
        send_many=sends.extend,
        config=config or SchedulerConfig(),
    )
    module.bind(lambda i, d, r, s: received.append((i, d, r, s)))
    return module, sends, received


def test_eager_sends_payload_immediately(sim):
    module, sends, _ = build(sim, PureEagerStrategy())
    module.l_send(1, "data", 2, peer=5)
    assert sends == [(5, MSG, (1, "data", 2), payload_packet_size(256))]
    assert module.eager_sends == 1


def test_lazy_sends_advertisement_and_caches(sim):
    module, sends, _ = build(sim, PureLazyStrategy())
    module.l_send(1, "data", 2, peer=5)
    assert sends == [(5, IHAVE, 1, control_packet_size())]
    assert module.cache.get(1) == ("data", 2)
    assert module.lazy_sends == 1


def test_ihave_for_unknown_triggers_immediate_iwant(sim):
    module, sends, _ = build(sim, PureLazyStrategy())
    module.handle(9, IHAVE, 1)
    sim.run()
    assert sends == [(9, IWANT, 1, control_packet_size())]


def test_ihave_for_received_message_is_ignored(sim):
    module, sends, _ = build(sim, PureLazyStrategy())
    module.handle(9, MSG, (1, "data", 2))
    sends.clear()
    module.handle(8, IHAVE, 1)
    sim.run()
    assert sends == []


def test_msg_hands_up_and_clears_requests(sim):
    module, sends, received = build(sim, PureLazyStrategy())
    module.handle(9, IHAVE, 1)
    module.handle(7, MSG, (1, "data", 3))
    sim.run()
    assert received == [(1, "data", 3, 7)]
    assert sends == []  # pending IWANT cancelled by Clear(i)


def test_duplicate_msg_not_redelivered(sim):
    module, _, received = build(sim, PureLazyStrategy())
    module.handle(9, MSG, (1, "data", 3))
    module.handle(8, MSG, (1, "data", 3))
    assert len(received) == 1
    assert module.duplicate_payloads == 1


def test_iwant_served_from_cache(sim):
    module, sends, _ = build(sim, PureLazyStrategy())
    module.l_send(1, "data", 2, peer=5)
    sends.clear()
    module.handle(6, IWANT, 1)
    assert sends == [(6, MSG, (1, "data", 2), payload_packet_size(256))]


def test_iwant_after_cache_eviction_is_dropped(sim):
    module, sends, _ = build(
        sim, PureLazyStrategy(), config=SchedulerConfig(cache_capacity=1)
    )
    module.l_send(1, "a", 2, peer=5)
    module.l_send(2, "b", 2, peer=5)  # evicts message 1
    sends.clear()
    module.handle(6, IWANT, 1)
    assert sends == []
    assert module.unanswerable_requests == 1


def test_retry_goes_to_second_source_after_period(sim):
    module, sends, _ = build(sim, PureLazyStrategy())
    module.handle(9, IHAVE, 1)
    module.handle(8, IHAVE, 1)
    sim.run()
    iwants = [(dst, kind) for dst, kind, _, _ in sends if kind == IWANT]
    assert iwants == [(9, IWANT), (8, IWANT)]


def test_payload_size_respects_declared_size(sim):
    class SizedPayload:
        size_bytes = 1000

    module, sends, _ = build(sim, PureEagerStrategy())
    module.l_send(1, SizedPayload(), 2, peer=5)
    assert sends[0][3] == payload_packet_size(1000)


def test_unknown_kind_rejected(sim):
    module, _, _ = build(sim, PureEagerStrategy())
    with pytest.raises(ValueError):
        module.handle(1, "BOGUS", None)


def test_end_to_end_lazy_exchange_between_two_modules(sim):
    """Two modules wired back-to-back: IHAVE -> IWANT -> MSG -> L-Receive."""
    modules = {}
    received = []

    def make_module(src):
        def send(dst, kind, payload, size):
            # Zero-latency direct wiring via the simulator.
            sim.call_soon(modules[dst].handle, src, kind, payload)

        def send_many(messages):
            for message in messages:
                send(*message)

        return LazyPointToPoint(sim, src, PureLazyStrategy(), send, send_many)

    a = modules[0] = make_module(0)
    b = modules[1] = make_module(1)
    a.bind(lambda i, d, r, s: None)
    b.bind(lambda i, d, r, s: received.append((i, d, r, s)))

    a.l_send(1, "payload", 1, peer=1)
    sim.run()
    assert received == [(1, "payload", 1, 0)]
    assert 1 in b.received
