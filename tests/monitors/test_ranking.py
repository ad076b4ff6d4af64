"""Oracle ranking tests."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.experiments.scenarios import BestLowClasses
from repro.monitors import ranking as ranking_module
from repro.monitors.ranking import OracleRanking, oracle_ranking
from repro.topology.simple import (
    complete_topology,
    random_metric_topology,
    star_topology,
)


def test_oracle_ranking_picks_central_nodes():
    model = star_topology(10, center_latency_ms=5.0, edge_latency_ms=50.0)
    ranking = OracleRanking(model, fraction=0.1)
    assert ranking.is_best(0)  # the hub
    assert not ranking.is_best(3)
    assert ranking.best_nodes == frozenset({0})


def test_oracle_ranking_fraction_sizes_set():
    model = complete_topology(10)
    ranking = OracleRanking(model, fraction=0.3)
    assert len(ranking.best_nodes) == 3


def test_oracle_ranking_validation():
    model = complete_topology(4)
    with pytest.raises(ValueError):
        OracleRanking(model, fraction=0.0)
    with pytest.raises(ValueError):
        OracleRanking(model, fraction=1.5)


def test_shared_oracle_ranking_is_cached_per_model_and_fraction():
    model = complete_topology(10, latency_ms=30.0, jitter_ms=10.0, seed=2)
    assert oracle_ranking(model, 0.2) is oracle_ranking(model, 0.2)
    assert oracle_ranking(model, 0.5) is not oracle_ranking(model, 0.2)


def test_shared_oracle_ranking_forgets_a_dead_model():
    model = random_metric_topology(20, seed=0)
    oracle_ranking(model, 0.2)
    alive = weakref.ref(model)
    entries = len(ranking_module._oracle_rankings)
    del model
    gc.collect()
    assert alive() is None
    assert len(ranking_module._oracle_rankings) == entries - 1


def test_fresh_models_never_inherit_another_models_best_set():
    # Each model dies when the next is bound, so a cache keyed by the
    # object's address hands the old best set to a new model.
    classes = BestLowClasses(0.2)
    for seed in range(200):
        model = random_metric_topology(20, seed=seed)
        expected = sorted(OracleRanking(model, 0.2).best_nodes)
        assert classes(model)["best"] == expected, seed
