"""Known-ids set (K) tests."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.gossip.known_ids import KnownIds


def test_membership():
    known = KnownIds()
    assert 5 not in known
    known.add(5)
    assert 5 in known
    assert len(known) == 1


def test_eviction_beyond_capacity():
    known = KnownIds(capacity=3)
    for i in range(3):
        assert known.add(i) is None
    evicted = known.add(3)
    assert evicted == 0  # oldest goes first
    assert 0 not in known
    assert known.evicted == 1


def test_readd_refreshes_position():
    known = KnownIds(capacity=3)
    for i in range(3):
        known.add(i)
    known.add(0)  # refresh: 0 is clearly active
    evicted = known.add(3)
    assert evicted == 1
    assert 0 in known


def test_rejects_bad_capacity():
    with pytest.raises(ValueError):
        KnownIds(capacity=0)


@given(st.lists(st.integers(0, 50), max_size=300), st.integers(1, 10))
def test_property_capacity_never_exceeded(ids, capacity):
    known = KnownIds(capacity=capacity)
    for i in ids:
        known.add(i)
        assert len(known) <= capacity
    # Every id reported present really was added.
    for i in range(51):
        if i in known:
            assert i in ids
