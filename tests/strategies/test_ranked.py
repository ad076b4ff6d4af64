"""Ranked strategy tests."""

from __future__ import annotations

from repro.strategies.ranked import RankedStrategy


def test_eager_when_local_node_is_best():
    strategy = RankedStrategy(node=0, best=frozenset({0, 5}))
    assert strategy.eager(1, None, 1, peer=7)  # local best, any peer


def test_eager_when_peer_is_best():
    strategy = RankedStrategy(node=3, best=frozenset({5}))
    assert strategy.eager(1, None, 1, peer=5)
    assert not strategy.eager(1, None, 1, peer=7)


def test_lazy_between_regular_nodes():
    strategy = RankedStrategy(node=3, best=frozenset({5}))
    assert not strategy.eager(1, None, 1, peer=4)


def test_round_independent():
    strategy = RankedStrategy(node=5, best=frozenset({5}))
    assert strategy.eager(1, None, 1, peer=0) == strategy.eager(1, None, 9, peer=0)


def test_default_schedule_is_flat_style():
    strategy = RankedStrategy(node=0, best=frozenset({0}))
    assert strategy.first_request_delay(1, 2) == 0.0
    assert strategy.select_source(1, [9, 8], set()) == 9
