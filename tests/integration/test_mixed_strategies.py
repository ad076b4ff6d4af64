"""Per-peer strategy independence (paper conclusion):

"although best results are achieved when all nodes cooperate on a single
strategy, correctness is ensured regardless of the strategy used by each
peer."  These tests deploy clusters where every node runs a different
strategy and assert delivery is unharmed.
"""

from __future__ import annotations

import pytest

from repro.strategies.adaptive import AdaptiveRadiusStrategy
from repro.strategies.flat import FlatStrategy, PureEagerStrategy, PureLazyStrategy
from repro.strategies.radius import RadiusStrategy
from repro.strategies.ranked import RankedStrategy
from repro.strategies.ttl import TtlStrategy
from repro.topology.simple import complete_topology
from tests.conftest import build_cluster


def run_multicasts(model, factory, messages=6, seed=31):
    cluster, recorder = build_cluster(model, factory, seed=seed)
    cluster.start()
    cluster.run_for(4_000.0)
    mids = []
    for index in range(messages):
        mids.append(cluster.multicast(index % model.size, ("m", index)))
        cluster.run_for(400.0)
    cluster.run_for(8_000.0)
    cluster.stop()
    return recorder, mids


@pytest.fixture(scope="module")
def model():
    return complete_topology(18, latency_ms=25.0, jitter_ms=10.0, seed=12)


def test_heterogeneous_strategy_zoo_delivers(model):
    """Six different strategies interleaved across the group."""

    def factory(ctx):
        kind = ctx.node % 6
        if kind == 0:
            return PureEagerStrategy()
        if kind == 1:
            return PureLazyStrategy()
        if kind == 2:
            return FlatStrategy(0.5, ctx.rng)
        if kind == 3:
            return TtlStrategy(2)
        if kind == 4:
            return RadiusStrategy(
                ctx.model.latency_ms[ctx.node],
                radius=25.0,
                first_request_delay_ms=50.0,
            )
        return RankedStrategy(ctx.node, frozenset({0, 6, 12}))

    recorder, mids = run_multicasts(model, factory)
    # Delivery is a with-high-probability guarantee (P(node missed) ~
    # e^-fanout); with this population a rare single miss is within spec.
    total = sum(len(recorder.deliveries[mid]) for mid in mids)
    assert total >= len(mids) * model.size - 1
    for mid in mids:
        assert len(recorder.deliveries[mid]) >= model.size - 1


def test_adaptive_nodes_coexist_with_static_ones(model):
    def factory(ctx):
        if ctx.node % 2 == 0:
            return AdaptiveRadiusStrategy(
                ctx.model.latency_ms[ctx.node],
                target_eager_rate=0.25,
                initial_radius=10.0,
                first_request_delay_ms=50.0,
                window=20,
            )
        return PureLazyStrategy()

    recorder, mids = run_multicasts(model, factory)
    for mid in mids:
        assert len(recorder.deliveries[mid]) == model.size


def test_single_defector_running_never_eager_cannot_block(model):
    """One node that never forwards payload eagerly and even refuses to
    answer promptly is routed around via other advertised sources."""

    class Defector(PureLazyStrategy):
        def first_request_delay(self, message_id, source):
            return 2_000.0  # drags its feet on requests too

    def factory(ctx):
        return Defector() if ctx.node == 5 else PureEagerStrategy()

    recorder, mids = run_multicasts(model, factory)
    for mid in mids:
        assert len(recorder.deliveries[mid]) == model.size
