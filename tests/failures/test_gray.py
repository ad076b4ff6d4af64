"""Lossy-link plan application tests."""

from __future__ import annotations

import pytest

from repro.failures.gray import (
    AppliedGrayFailures,
    GrayFailureInjector,
    GrayFailurePlan,
)
from repro.strategies.flat import PureEagerStrategy
from repro.topology.simple import complete_topology
from tests.conftest import build_cluster


def make_cluster(n=20, seed=5):
    model = complete_topology(n, latency_ms=10.0)
    cluster, recorder = build_cluster(
        model, lambda ctx: PureEagerStrategy(), seed=seed
    )
    return cluster, recorder


def test_empty_plan_is_noop():
    cluster, _ = make_cluster(10)
    injector = GrayFailureInjector(cluster)
    applied = injector.apply(GrayFailurePlan())
    assert applied == AppliedGrayFailures()
    assert cluster.sim.pending_events == 0
    assert all(
        cluster.fabric.link_profile(src, dst) is None
        for src in range(10)
        for dst in range(10)
    )


def test_plan_validation():
    with pytest.raises(ValueError):
        GrayFailurePlan(lossy_link_fraction=1.5)
    with pytest.raises(ValueError):
        GrayFailurePlan(lossy_link_fraction=-0.1)
    with pytest.raises(ValueError):
        GrayFailurePlan(link_loss_probability=2.0)


def test_apply_impairs_the_planned_fractions():
    cluster, _ = make_cluster(20)
    injector = GrayFailureInjector(cluster)
    applied = injector.apply(
        GrayFailurePlan(lossy_link_fraction=0.05, link_loss_probability=0.3)
    )
    assert len(applied.lossy_links) == round(0.05 * 20 * 19)
    fabric = cluster.fabric
    for src, dst in applied.lossy_links:
        profile = fabric.link_profile(src, dst)
        assert profile is not None and profile.loss_probability == 0.3
    impaired = set(applied.lossy_links)
    assert all(
        fabric.link_profile(src, dst) is None
        for src in range(20)
        for dst in range(20)
        if (src, dst) not in impaired
    )


def test_link_sampling_is_directional():
    cluster, _ = make_cluster(20)
    injector = GrayFailureInjector(cluster)
    applied = injector.apply(GrayFailurePlan(lossy_link_fraction=0.05))
    assert all(src != dst for src, dst in applied.lossy_links)
    reverse_also = [
        (s, d) for s, d in applied.lossy_links
        if (d, s) in set(applied.lossy_links)
    ]
    # Directed sampling: impairment is (almost surely) asymmetric.
    assert len(reverse_also) < len(applied.lossy_links)


def test_same_seed_impairs_same_targets():
    applied = []
    for _ in range(2):
        cluster, _ = make_cluster(20, seed=5)
        injector = GrayFailureInjector(cluster)
        applied.append(injector.apply(GrayFailurePlan(lossy_link_fraction=0.03)))
    assert applied[0] == applied[1]
    assert applied[0].lossy_links


def test_gray_plan_does_not_change_message_ids():
    """Applying a plan must not perturb protocol randomness: the same
    traffic yields identical delivery sets with and without an untriggered
    impairment on unrelated links."""

    def run(with_plan: bool):
        cluster, recorder = make_cluster(10, seed=11)
        if with_plan:
            GrayFailureInjector(cluster).apply(
                GrayFailurePlan(lossy_link_fraction=0.02, link_loss_probability=0.0)
            )
        cluster.start()
        mid = cluster.multicast(0, "x")
        cluster.run_for(2_000.0)
        cluster.stop()
        return sorted(recorder.deliveries[mid])

    assert run(False) == run(True)
