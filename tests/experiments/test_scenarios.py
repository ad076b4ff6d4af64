"""Scenario factory tests."""

from __future__ import annotations

import random

import pytest

from repro.experiments.scenarios import (
    ScenarioParams,
    best_low_classes,
    flat_factory,
    hybrid_factory,
    noisy_factory,
    radius_calibration,
    radius_factory,
    ranked_calibration,
    ranked_factory,
    ttl_factory,
)
from repro.runtime.node import StrategyContext
from repro.strategies.flat import FlatStrategy
from repro.strategies.hybrid import HybridStrategy
from repro.strategies.noise import NoisyStrategy
from repro.strategies.radius import RadiusStrategy
from repro.strategies.ranked import RankedStrategy
from repro.strategies.ttl import TtlStrategy
from repro.topology.simple import complete_topology, star_topology


def context(model, node=0):
    return StrategyContext(
        node=node,
        rng=random.Random(node),
        retry_period_ms=400.0,
        model=model,
    )


def test_flat_factory():
    strategy = flat_factory(0.4)(context(complete_topology(5)))
    assert isinstance(strategy, FlatStrategy)
    assert strategy.probability == 0.4
    assert strategy.retry_period_ms == 400.0


def test_ttl_factory():
    strategy = ttl_factory(3)(context(complete_topology(5)))
    assert isinstance(strategy, TtlStrategy)
    assert strategy.eager_rounds == 3


def test_radius_factory_latency_and_distance():
    model = complete_topology(5)
    lat = radius_factory()(context(model, node=2))
    assert isinstance(lat, RadiusStrategy)
    assert lat.row is model.latency_ms[2]  # shared, not copied
    dist = radius_factory(metric="distance")(context(model, node=2))
    assert dist.row == [model.distance(2, peer) for peer in range(5)]
    with pytest.raises(ValueError):
        radius_factory(metric="nonsense")


def test_ranked_factory_identifies_hub():
    model = star_topology(10)
    params = ScenarioParams(ranked_fraction=0.1)
    strategy = ranked_factory(params)(context(model, node=0))
    assert isinstance(strategy, RankedStrategy)
    assert strategy.is_hub
    assert strategy.best == frozenset({0})


def test_ranking_cache_shared_across_nodes():
    model = star_topology(10)
    factory = ranked_factory(ScenarioParams(ranked_fraction=0.1))
    a = factory(context(model, node=0))
    b = factory(context(model, node=3))
    assert a.best is b.best is model.best_nodes(0.1)


def test_hybrid_factory():
    strategy = hybrid_factory()(context(complete_topology(6)))
    assert isinstance(strategy, HybridStrategy)


def test_noisy_factory_wraps():
    base = flat_factory(0.5)
    strategy = noisy_factory(base, 0.4, calibration=0.5)(
        context(complete_topology(5))
    )
    assert isinstance(strategy, NoisyStrategy)
    assert strategy.noise == 0.4
    assert isinstance(strategy.inner, FlatStrategy)


def test_radius_calibration_counts_close_pairs():
    model = complete_topology(6, latency_ms=50.0)
    assert radius_calibration(model, radius_ms=60.0) == pytest.approx(1.0)
    assert radius_calibration(model, radius_ms=10.0) == pytest.approx(0.0)


def test_ranked_calibration_formula():
    model = complete_topology(10)
    # k = 2 best of 10: ordered pairs with no best endpoint = 8*7 = 56 of 90.
    value = ranked_calibration(model, fraction=0.2)
    assert value == pytest.approx(1.0 - 56.0 / 90.0)


def test_best_low_classes_partition():
    model = star_topology(10)
    classes = best_low_classes(0.2)(model)
    assert len(classes["best"]) == 2
    assert len(classes["low"]) == 8
    assert set(classes["best"]) | set(classes["low"]) == set(range(10))
    assert 0 in classes["best"]  # the hub is best
