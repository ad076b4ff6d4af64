"""Noise wrapper (section 4.3) tests, including the rate-preservation
property the paper's Fig. 6(a) depends on."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.strategies.flat import PureEagerStrategy, PureLazyStrategy
from repro.strategies.noise import NoisyStrategy
from repro.strategies.radius import RadiusStrategy


def rate(strategy, peers, samples=6000, rng=None):
    rng = rng or random.Random(0)
    hits = 0
    for i in range(samples):
        if strategy.eager(i, None, 1, peer=rng.choice(peers)):
            hits += 1
    return hits / samples


def base_radius_strategy():
    # Peers 0..9: metrics 0..90; radius 35 -> 40% of peers are close.
    row = [10.0 * p for p in range(10)]
    return RadiusStrategy(row, radius=35.0, first_request_delay_ms=10.0)


def test_zero_noise_passes_decisions_through():
    noisy = NoisyStrategy(base_radius_strategy(), 0.0, random.Random(1))
    assert noisy.eager(1, None, 1, peer=0)
    assert not noisy.eager(1, None, 1, peer=9)


def test_full_noise_erases_structure_to_flat():
    """o = 1.0: decisions become independent of the peer, but the
    calibrated rate stays the underlying strategy's rate."""
    noisy = NoisyStrategy(
        base_radius_strategy(), 1.0, random.Random(2), calibration=0.4
    )
    close = rate(noisy, peers=[0, 1, 2, 3])
    far = rate(noisy, peers=[6, 7, 8, 9])
    assert abs(close - far) < 0.05  # no structure left
    assert abs(close - 0.4) < 0.05


def test_partial_noise_blurs_gradually():
    noisy = NoisyStrategy(
        base_radius_strategy(), 0.5, random.Random(3), calibration=0.4
    )
    close = rate(noisy, peers=[0, 1, 2, 3])
    far = rate(noisy, peers=[6, 7, 8, 9])
    assert close > far  # structure partially survives
    assert close == pytest.approx(0.4 + 0.6 * 0.5, abs=0.05)
    assert far == pytest.approx(0.4 * 0.5, abs=0.05)


@settings(max_examples=20, deadline=None)
@given(noise=st.floats(min_value=0.0, max_value=1.0))
def test_property_overall_eager_rate_preserved(noise):
    """E[v'] = E[v] for any noise level when c is calibrated correctly."""
    noisy = NoisyStrategy(
        base_radius_strategy(), noise, random.Random(5), calibration=0.4
    )
    overall = rate(noisy, peers=list(range(10)), samples=8000)
    assert overall == pytest.approx(0.4, abs=0.04)


def test_online_calibration_converges_to_base_rate():
    noisy = NoisyStrategy(base_radius_strategy(), 1.0, random.Random(6))
    overall = rate(noisy, peers=list(range(10)), samples=8000)
    assert overall == pytest.approx(0.4, abs=0.05)
    assert noisy.calibration == pytest.approx(0.4, abs=0.03)


def test_extremes_bounded_by_pure_strategies():
    """Worst case: noisy eager stays eager-rate 1, noisy lazy stays 0."""
    eager = NoisyStrategy(PureEagerStrategy(), 1.0, random.Random(7), calibration=1.0)
    lazy = NoisyStrategy(PureLazyStrategy(), 1.0, random.Random(8), calibration=0.0)
    assert rate(eager, [0], samples=500) == 1.0
    assert rate(lazy, [0], samples=500) == 0.0


def test_timing_hooks_delegate_to_inner():
    inner = base_radius_strategy()
    noisy = NoisyStrategy(inner, 0.7, random.Random(9))
    assert noisy.first_request_delay(1, 2) == inner.first_request_delay(1, 2)
    assert noisy.retry_period_ms == inner.retry_period_ms
    assert noisy.select_source(1, [9, 0], set()) == 0  # nearest via inner


def test_validation():
    with pytest.raises(ValueError):
        NoisyStrategy(PureEagerStrategy(), 1.5, random.Random(1))
    with pytest.raises(ValueError):
        NoisyStrategy(PureEagerStrategy(), 0.5, random.Random(1), calibration=2.0)
