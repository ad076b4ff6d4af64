"""Adaptive radius strategy tests."""

from __future__ import annotations

import random

import pytest

from repro.strategies.adaptive import AdaptiveRadiusStrategy


def uniform_row(n=100, spread=100.0):
    """Peers 0..n-1 at metrics uniformly spread over [0, spread)."""
    return [spread * p / n for p in range(n)]


def drive(strategy, queries=5000, n_peers=100, seed=0):
    rng = random.Random(seed)
    eager = 0
    for i in range(queries):
        if strategy.eager(i, None, 1, peer=rng.randrange(n_peers)):
            eager += 1
    return eager / queries


def test_converges_to_target_rate_from_below():
    strategy = AdaptiveRadiusStrategy(
        uniform_row(), target_eager_rate=0.3,
        initial_radius=1.0,  # way too small: starts at ~1% eager
        first_request_delay_ms=10.0,
    )
    drive(strategy, queries=4000)
    late_rate = drive(strategy, queries=3000, seed=1)
    assert late_rate == pytest.approx(0.3, abs=0.06)
    assert strategy.adjustments > 0


def test_converges_to_target_rate_from_above():
    strategy = AdaptiveRadiusStrategy(
        uniform_row(), target_eager_rate=0.2,
        initial_radius=1000.0,  # way too big: starts fully eager
        first_request_delay_ms=10.0,
    )
    drive(strategy, queries=4000)
    late_rate = drive(strategy, queries=3000, seed=2)
    assert late_rate == pytest.approx(0.2, abs=0.06)


def test_radius_respects_bounds():
    strategy = AdaptiveRadiusStrategy(
        uniform_row(), target_eager_rate=0.5,
        initial_radius=5.0, first_request_delay_ms=10.0,
        min_radius=2.0, max_radius=20.0,
    )
    drive(strategy, queries=5000)
    assert 2.0 <= strategy.radius <= 20.0


def test_tracks_environment_change():
    """When all peers suddenly move closer, the controller shrinks the
    radius to keep the budget."""
    row = uniform_row(spread=100.0)
    strategy = AdaptiveRadiusStrategy(
        row, target_eager_rate=0.3, initial_radius=30.0,
        first_request_delay_ms=10.0,
    )
    drive(strategy, queries=3000)
    radius_before = strategy.radius
    for peer in range(100):
        row[peer] /= 4.0
    drive(strategy, queries=4000, seed=3)
    assert strategy.radius < radius_before
    late_rate = drive(strategy, queries=3000, seed=4)
    assert late_rate == pytest.approx(0.3, abs=0.07)


def test_schedule_is_radius_style():
    strategy = AdaptiveRadiusStrategy(
        uniform_row(), 0.3, 10.0, first_request_delay_ms=25.0
    )
    assert strategy.first_request_delay(1, 2) == 25.0
    assert strategy.select_source(1, [50, 3, 20], set()) == 3


def test_validation():
    row = uniform_row()
    with pytest.raises(ValueError):
        AdaptiveRadiusStrategy(row, 0.0, 10.0, 1.0)
    with pytest.raises(ValueError):
        AdaptiveRadiusStrategy(row, 0.3, 0.0, 1.0)
    with pytest.raises(ValueError):
        AdaptiveRadiusStrategy(row, 0.3, 10.0, 1.0, window=0)
    with pytest.raises(ValueError):
        AdaptiveRadiusStrategy(row, 0.3, 10.0, 1.0, gain=0.0)
