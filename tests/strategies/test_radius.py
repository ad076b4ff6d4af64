"""Radius strategy tests."""

from __future__ import annotations

import pytest

from repro.strategies.radius import RadiusStrategy


def build(radius=20.0, first_delay=40.0, row=None):
    row = row or {1: 5.0, 2: 19.9, 3: 20.0, 4: 80.0, 99: float("inf")}
    return RadiusStrategy(row, radius, first_delay)


def test_eager_strictly_inside_radius():
    strategy = build()
    assert strategy.eager(1, None, 1, peer=1)
    assert strategy.eager(1, None, 1, peer=2)
    assert not strategy.eager(1, None, 1, peer=3)  # boundary is exclusive
    assert not strategy.eager(1, None, 1, peer=4)


def test_unknown_peer_is_lazy():
    # A row entry of inf (an unmeasured peer) is never inside a radius.
    strategy = build()
    assert not strategy.eager(1, None, 1, peer=99)


def test_first_request_delayed_by_t0():
    strategy = build(first_delay=60.0)
    assert strategy.first_request_delay(1, source=4) == 60.0


def test_nearest_source_selected():
    strategy = build()
    assert strategy.select_source(1, [4, 2, 3], set()) == 2
    assert strategy.select_source(1, [4], {2, 3}) == 4


def test_independent_of_round():
    strategy = build()
    assert strategy.eager(1, None, 1, peer=1) == strategy.eager(1, None, 9, peer=1)


def test_validation():
    with pytest.raises(ValueError):
        RadiusStrategy([], radius=0.0, first_request_delay_ms=10.0)
    with pytest.raises(ValueError):
        RadiusStrategy([], radius=10.0, first_request_delay_ms=-1.0)
