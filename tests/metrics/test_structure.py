"""Structure concentration metric tests."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.metrics.structure import link_concentration, node_concentration


def test_even_spread_equals_fraction():
    counts = {(i, i + 1): 10 for i in range(100)}
    assert link_concentration(counts, 0.05) == pytest.approx(0.05)


def test_concentrated_traffic_scores_high():
    counts = {(i, i + 1): 1 for i in range(95)}
    counts.update({(100 + i, 200 + i): 100 for i in range(5)})
    share = link_concentration(counts, 0.05)
    assert share > 0.8


def test_empty_and_zero_traffic():
    assert link_concentration({}, 0.05) == 0.0
    assert link_concentration({(0, 1): 0}, 0.05) == 0.0


def test_top_n_rounds_up():
    counts = {(0, 1): 10, (1, 2): 1}  # 5% of 2 links -> 1 link
    assert link_concentration(counts, 0.05) == pytest.approx(10 / 11)


def test_unused_keys_do_not_enlarge_the_cut():
    """Keys that carried nothing are not "used": 100 zero entries beside
    links with counts 1..10 leave the top-5 % cut at one link."""
    counts = {(i, i + 1): i for i in range(1, 11)}
    padded = {**counts, **{(100 + i, 200 + i): 0 for i in range(100)}}
    assert link_concentration(counts, 0.05) == pytest.approx(10 / 55)
    assert link_concentration(padded, 0.05) == link_concentration(counts, 0.05)
    assert node_concentration({0: 3, 1: 1, 2: 0, 3: 0}, 0.5) == pytest.approx(3 / 4)


def test_node_concentration():
    counts = {0: 100, 1: 1, 2: 1, 3: 1}
    assert node_concentration(counts, 0.25) == pytest.approx(100 / 103)


def test_fraction_validation():
    with pytest.raises(ValueError):
        link_concentration({(0, 1): 1}, 0.0)
    with pytest.raises(ValueError):
        node_concentration({0: 1}, 1.5)


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 50), st.integers(0, 50)),
        st.integers(0, 1000),
        min_size=1,
        max_size=60,
    ),
    st.floats(min_value=0.01, max_value=1.0),
)
def test_property_share_bounded_and_at_least_even(counts, fraction):
    share = link_concentration(counts, fraction)
    assert 0.0 <= share <= 1.0
    if sum(counts.values()) > 0:
        # Top links carry at least their even share.
        top_n = max(1, -(-len(counts) * fraction // 1))
        assert share >= min(1.0, fraction) * 0.999 or top_n >= len(counts)
