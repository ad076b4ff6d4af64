"""Hybrid ("combined") strategy tests (section 6.4)."""

from __future__ import annotations

import pytest

from repro.strategies.hybrid import HybridStrategy


def build(node=3, best=(0,), radius=10.0, eager_rounds=2, row=None):
    return HybridStrategy(
        node=node,
        best=frozenset(best),
        row=row or {0: 50.0, 1: 5.0, 2: 15.0, 4: 50.0},
        radius=radius,
        eager_rounds=eager_rounds,
        first_request_delay_ms=20.0,
    )


def test_best_local_node_always_eager():
    strategy = build(node=0, best=(0,))
    assert strategy.eager(1, None, 9, peer=4)  # far peer, late round


def test_sender_side_best_test_by_default():
    strategy = build(node=3, best=(0,))
    # Peer 0 is best but far: the sender-side rule stays lazy.
    assert not strategy.eager(1, None, 9, peer=0)


def test_double_radius_during_early_rounds():
    strategy = build(radius=10.0, eager_rounds=2)
    # Peer 2 at metric 15: inside 2*rho early, outside rho later.
    assert strategy.eager(1, None, 1, peer=2)
    assert not strategy.eager(1, None, 2, peer=2)


def test_tight_radius_always_eager():
    strategy = build(radius=10.0)
    assert strategy.eager(1, None, 1, peer=1)
    assert strategy.eager(1, None, 9, peer=1)


def test_far_peer_always_lazy():
    strategy = build()
    assert not strategy.eager(1, None, 1, peer=4)
    assert not strategy.eager(1, None, 9, peer=4)


def test_radius_style_schedule():
    strategy = build()
    assert strategy.first_request_delay(1, source=2) == 20.0
    assert strategy.select_source(1, [4, 1, 2], set()) == 1  # nearest


def test_validation():
    with pytest.raises(ValueError):
        build(radius=0.0)
    with pytest.raises(ValueError):
        HybridStrategy(
            node=0,
            best=frozenset(),
            row=[],
            radius=10.0,
            eager_rounds=-1,
            first_request_delay_ms=0.0,
        )
