"""Partial view unit and property tests."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.membership.view import PartialView


def make_view(capacity=5, owner=0, seed=1, initial=None):
    return PartialView(owner, capacity, random.Random(seed), initial=initial)


def test_add_and_contains():
    view = make_view()
    assert view.add(3) is None
    assert 3 in view
    assert len(view) == 1


def test_rejects_self_and_duplicates():
    view = make_view(owner=7)
    assert view.add(7) is None
    assert 7 not in view
    view.add(3)
    assert view.add(3) is None
    assert len(view) == 1


def test_eviction_on_overflow():
    view = make_view(capacity=3)
    for peer in (1, 2, 3):
        view.add(peer)
    evicted = view.add(4)
    assert evicted in (1, 2, 3)
    assert len(view) == 3
    assert 4 in view
    assert evicted not in view


def test_sample_excludes_and_bounds():
    view = make_view(capacity=10, initial=[1, 2, 3, 4])
    sample = view.sample(2, exclude=3)
    assert len(sample) == 2
    assert 3 not in sample
    everything = view.sample(100)
    assert sorted(everything) == [1, 2, 3, 4]


def test_random_peer():
    assert make_view().random_peer() is None
    view = make_view(initial=[5])
    assert view.random_peer() == 5


def test_rejects_bad_capacity():
    with pytest.raises(ValueError):
        PartialView(0, 0, random.Random(1))


@given(st.lists(st.integers(0, 30), max_size=200), st.integers(1, 8))
def test_property_view_invariants(additions, capacity):
    """No self, no duplicates, never above capacity -- under any
    sequence of additions."""
    owner = 0
    view = PartialView(owner, capacity, random.Random(9))
    for peer in additions:
        view.add(peer)
        peers = view.peers()
        assert owner not in peers
        assert len(peers) == len(set(peers))
        assert len(peers) <= capacity
