"""Gossip configuration math tests (section 5.2 dimensioning)."""

from __future__ import annotations

import pytest

from repro.gossip.config import (
    GossipConfig,
    atomic_delivery_probability,
    overlay_connectivity_probability,
    recommended_rounds,
)


def test_paper_atomic_delivery_number():
    """f=11, n=200, 1% loss -> ~0.995 atomic delivery (section 5.2)."""
    p = atomic_delivery_probability(200, 11, loss_probability=0.01)
    assert 0.993 <= p <= 0.999


def test_paper_connectivity_number():
    """degree 15, n=200, 15% failures -> ~0.999 connected (section 5.2)."""
    p = overlay_connectivity_probability(200, 15, failed_fraction=0.15)
    assert 0.998 <= p <= 0.9999


def test_atomic_probability_monotone_in_fanout():
    values = [atomic_delivery_probability(100, f) for f in (3, 6, 9, 12)]
    assert values == sorted(values)


def test_atomic_probability_decreases_with_loss():
    clean = atomic_delivery_probability(100, 8, 0.0)
    lossy = atomic_delivery_probability(100, 8, 0.3)
    assert lossy < clean


def test_connectivity_decreases_with_failures():
    healthy = overlay_connectivity_probability(100, 10, 0.0)
    degraded = overlay_connectivity_probability(100, 10, 0.5)
    assert degraded < healthy


def test_recommended_rounds_grows_with_population():
    small = recommended_rounds(10, 5)
    large = recommended_rounds(100_000, 5)
    assert large > small
    assert recommended_rounds(1, 5) == 1


def test_recommended_rounds_for_paper_population():
    assert recommended_rounds(100, 11) == 5
    assert recommended_rounds(200, 11) == 6


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        atomic_delivery_probability(0, 5)
    with pytest.raises(ValueError):
        atomic_delivery_probability(10, 5, 1.0)
    with pytest.raises(ValueError):
        overlay_connectivity_probability(10, 0)
    with pytest.raises(ValueError):
        recommended_rounds(10, 1)


def test_gossip_config_defaults_and_validation():
    config = GossipConfig()
    assert config.fanout == 11
    with pytest.raises(ValueError):
        GossipConfig(fanout=0)
    with pytest.raises(ValueError):
        GossipConfig(rounds=0)


def test_for_population_sizes_rounds():
    config = GossipConfig.for_population(100)
    assert config.rounds == recommended_rounds(100, 11)
