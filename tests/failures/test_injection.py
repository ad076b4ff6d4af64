"""Failure injection tests."""

from __future__ import annotations

import pytest

from repro.failures.injection import FailureInjector, FailurePlan
from repro.strategies.flat import PureEagerStrategy
from repro.topology.simple import complete_topology
from tests.conftest import build_cluster


def make_cluster(n=10):
    model = complete_topology(n, latency_ms=10.0)
    cluster, _ = build_cluster(model, lambda ctx: PureEagerStrategy())
    return cluster


def test_random_plan_silences_expected_count():
    cluster = make_cluster(10)
    injector = FailureInjector(cluster)
    victims = injector.apply(FailurePlan(fraction=0.3))
    assert len(victims) == 3
    assert all(cluster.fabric.is_silenced(v) for v in victims)
    assert len(cluster.alive_nodes) == 7


def test_zero_fraction_is_noop():
    cluster = make_cluster(10)
    injector = FailureInjector(cluster)
    assert injector.apply(FailurePlan(fraction=0.0)) == []
    assert len(cluster.alive_nodes) == 10


def test_best_plan_kills_ranked_order():
    cluster = make_cluster(10)
    injector = FailureInjector(cluster)
    ranked = [5, 2, 8, 1, 0, 3, 4, 6, 7, 9]
    victims = injector.apply(
        FailurePlan(fraction=0.3, target="best", ranked_nodes=ranked)
    )
    assert victims == [5, 2, 8]


def test_best_plan_fills_from_population_when_short():
    cluster = make_cluster(10)
    injector = FailureInjector(cluster)
    victims = injector.apply(
        FailurePlan(fraction=0.5, target="best", ranked_nodes=[1, 2])
    )
    assert len(victims) == 5
    assert victims[:2] == [1, 2]


def test_best_plan_skips_already_failed():
    """Re-applying a targeted plan kills the next-ranked healthy nodes
    instead of double-counting earlier victims."""
    cluster = make_cluster(10)
    injector = FailureInjector(cluster)
    ranked = list(range(10))
    first = injector.apply(
        FailurePlan(fraction=0.2, target="best", ranked_nodes=ranked)
    )
    second = injector.apply(
        FailurePlan(fraction=0.2, target="best", ranked_nodes=ranked)
    )
    assert first == [0, 1]
    assert second == [2, 3]
    assert injector.failed == [0, 1, 2, 3]
    assert len(cluster.alive_nodes) == 6


def test_revive_restores_connectivity():
    cluster = make_cluster(6)
    injector = FailureInjector(cluster)
    injector.fail_nodes([2, 4])
    injector.revive([2])
    assert injector.failed == [4]
    assert not cluster.fabric.is_silenced(2)
    assert cluster.fabric.is_silenced(4)


def test_revive_with_wipe_restarts_node():
    cluster = make_cluster(6)
    injector = FailureInjector(cluster)
    injector.fail_nodes([3])
    injector.revive([3], wipe_state=True)
    assert not cluster.fabric.is_silenced(3)
    assert cluster.nodes[3].restarts == 1


def test_fail_nodes_explicit():
    cluster = make_cluster(6)
    injector = FailureInjector(cluster)
    injector.fail_nodes([0, 3])
    assert injector.failed == [0, 3]
    assert cluster.fabric.is_silenced(3)


def test_plan_validation():
    with pytest.raises(ValueError):
        FailurePlan(fraction=1.0)
    with pytest.raises(ValueError):
        FailurePlan(fraction=0.5, target="nonsense")
    with pytest.raises(ValueError):
        FailurePlan(fraction=0.5, target="best")  # missing ranked_nodes


def test_plan_that_would_silence_every_node_is_refused():
    """``fraction < 1`` still rounds to the whole of a small population;
    the count rule refuses that by name instead of leaving no sender."""
    plan = FailurePlan(fraction=0.9)
    assert plan.victim_count(10) == 9
    with pytest.raises(ValueError, match=r"fraction=0\.9 silences all 3 nodes"):
        plan.victim_count(3)
    with pytest.raises(ValueError, match="silences all 3 nodes"):
        FailureInjector(make_cluster(3)).apply(plan)


def test_silenced_node_sends_and_receives_nothing():
    model = complete_topology(6, latency_ms=10.0)
    cluster, recorder = build_cluster(model, lambda ctx: PureEagerStrategy())
    FailureInjector(cluster).fail_nodes([2])
    cluster.multicast(0, "x")
    cluster.sim.run(until=5_000.0)
    assert 2 not in {
        node for per_node in recorder.deliveries.values() for node in per_node
    }
