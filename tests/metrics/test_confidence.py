"""Confidence interval tests."""

from __future__ import annotations

import math
import random

import pytest

from repro.metrics.confidence import (
    intervals_overlap,
    mean_confidence_interval,
    percentile,
)


def test_known_interval():
    values = [10.0, 12.0, 8.0, 11.0, 9.0]
    mean, half = mean_confidence_interval(values)
    assert mean == pytest.approx(10.0)
    sample_std = math.sqrt(sum((v - 10.0) ** 2 for v in values) / 4)
    assert half == pytest.approx(1.96 * sample_std / math.sqrt(5))


def test_interval_narrows_with_samples():
    rng = random.Random(1)
    small = mean_confidence_interval([rng.gauss(0, 1) for _ in range(20)])
    large = mean_confidence_interval([rng.gauss(0, 1) for _ in range(2000)])
    assert large[1] < small[1]


def test_single_sample_has_infinite_width():
    mean, half = mean_confidence_interval([5.0])
    assert mean == 5.0
    assert half == float("inf")


def test_coverage_on_gaussian_data():
    """~95% of intervals over N(7, 2) samples must contain 7."""
    rng = random.Random(3)
    covered = 0
    trials = 300
    for _ in range(trials):
        values = [rng.gauss(7.0, 2.0) for _ in range(40)]
        mean, half = mean_confidence_interval(values)
        if mean - half <= 7.0 <= mean + half:
            covered += 1
    assert covered / trials > 0.9


def test_confidence_levels():
    values = [1.0, 2.0, 3.0, 4.0]
    _, h90 = mean_confidence_interval(values, 0.90)
    _, h95 = mean_confidence_interval(values, 0.95)
    _, h99 = mean_confidence_interval(values, 0.99)
    assert h90 < h95 < h99
    with pytest.raises(ValueError):
        mean_confidence_interval(values, 0.80)


def test_empty_rejected():
    with pytest.raises(ValueError):
        mean_confidence_interval([])


def test_intervals_overlap():
    assert intervals_overlap((10.0, 2.0), (13.0, 2.0))
    assert not intervals_overlap((10.0, 1.0), (13.0, 1.0))
    assert intervals_overlap((10.0, 0.0), (10.0, 0.0))


# -- degenerate intervals (R=1, NaN means) -----------------------------------------


def test_nan_mean_propagates_but_does_not_raise():
    """A run that delivered nothing yields a NaN metric; the interval
    carries it through instead of blowing up."""
    mean, half = mean_confidence_interval([float("nan"), 1.0, 2.0])
    assert math.isnan(mean)
    assert math.isnan(half) or half >= 0.0


def test_nan_intervals_read_as_overlapping():
    """No difference claim is supportable from a NaN interval."""
    nan = float("nan")
    assert intervals_overlap((nan, 1.0), (10.0, 1.0))
    assert intervals_overlap((10.0, 1.0), (nan, 1.0))
    assert intervals_overlap((10.0, nan), (99.0, 0.1))
    assert intervals_overlap((nan, nan), (nan, nan))


def test_single_sample_interval_overlaps_everything():
    """The R=1 guard: infinite half-width intersects any interval."""
    single = mean_confidence_interval([5.0])
    assert intervals_overlap(single, (1_000_000.0, 0.0))
    assert intervals_overlap((1_000_000.0, 0.0), single)


def test_percentile_interpolates_between_neighbours():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 0.0) == 10.0
    assert percentile(values, 1.0) == 40.0
    assert percentile(values, 0.5) == pytest.approx(25.0)
    assert percentile(values, 0.25) == pytest.approx(17.5)
    assert percentile([7.0], 0.95) == 7.0


def test_percentile_of_nothing_is_nan():
    assert math.isnan(percentile([], 0.5))
