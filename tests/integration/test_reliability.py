"""Integration tests for section 6.3: failures must not break gossip."""

from __future__ import annotations

import pytest

from repro.failures.injection import FailureInjector, FailurePlan
from repro.gossip.config import GossipConfig
from repro.strategies.flat import PureEagerStrategy
from repro.strategies.ranked import RankedStrategy
from repro.topology.simple import complete_topology
from tests.conftest import build_cluster


def delivery_ratio(model, factory, fraction, target="random", ranked_nodes=None,
                   messages=10, seed=17):
    cluster, recorder = build_cluster(
        model, factory, seed=seed, gossip=GossipConfig(fanout=6, rounds=4)
    )
    cluster.start()
    cluster.run_for(4_000.0)
    if fraction > 0:
        FailureInjector(cluster).apply(
            FailurePlan(fraction=fraction, target=target, ranked_nodes=ranked_nodes)
        )
    alive = cluster.alive_nodes
    for index in range(messages):
        cluster.multicast(alive[index % len(alive)], ("m", index))
        cluster.run_for(300.0)
    cluster.run_for(8_000.0)
    cluster.stop()
    total = sum(
        sum(1 for node in per_node if node in set(alive))
        for per_node in recorder.deliveries.values()
    )
    return total / (messages * len(alive))


@pytest.fixture(scope="module")
def model():
    return complete_topology(20, latency_ms=15.0, seed=6)


def test_no_failures_atomic_delivery(model):
    assert delivery_ratio(model, lambda ctx: PureEagerStrategy(), 0.0) == 1.0


def test_moderate_random_failures_tolerated(model):
    ratio = delivery_ratio(model, lambda ctx: PureEagerStrategy(), 0.3)
    assert ratio > 0.95


def test_heavy_failures_degrade_but_mostly_deliver(model):
    ratio = delivery_ratio(model, lambda ctx: PureEagerStrategy(), 0.6)
    assert ratio > 0.7


def test_killing_best_nodes_does_not_break_ranked(model):
    """The paper's adversarial case: fail exactly the nodes carrying the
    most payload.  Lazy advertisements through surviving nodes must keep
    delivery high."""
    best = frozenset({0, 1, 2, 3})
    ratio = delivery_ratio(
        model,
        lambda ctx: RankedStrategy(ctx.node, best),
        fraction=0.2,
        target="best",
        ranked_nodes=[0, 1, 2, 3] + [n for n in range(4, 20)],
    )
    assert ratio > 0.9
