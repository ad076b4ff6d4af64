"""ProtocolNode dispatch and lifecycle tests."""

from __future__ import annotations

import pytest

from repro.gossip.config import GossipConfig
from repro.strategies.flat import PureEagerStrategy
from repro.topology.simple import complete_topology
from tests.conftest import build_cluster


def test_unknown_kind_raises():
    model = complete_topology(4)
    cluster, _ = build_cluster(model, lambda ctx: PureEagerStrategy())
    node = cluster.nodes[0]
    with pytest.raises(ValueError):
        node._receive(1, "UNKNOWN_KIND", None)


def test_dispatch_covers_all_stack_kinds():
    from repro.membership.neem_overlay import NeemOverlay
    from repro.runtime.cluster import Cluster, ClusterConfig
    from repro.scheduler.lazy_point_to_point import LazyPointToPoint

    model = complete_topology(5)
    config = ClusterConfig(gossip=GossipConfig(fanout=2, rounds=2))
    cluster = Cluster(model, lambda ctx: PureEagerStrategy(), config=config)
    node = cluster.nodes[0]
    expected = set(LazyPointToPoint.KINDS) | set(NeemOverlay.KINDS)
    assert set(node._dispatch) == expected


def test_start_stop_idempotent_behaviour():
    model = complete_topology(4)
    cluster, _ = build_cluster(model, lambda ctx: PureEagerStrategy())
    node = cluster.nodes[0]
    node.start()
    node.stop()
    node.stop()  # second stop is harmless
    # After stop, overlay timers are inert: no events accumulate.
    pending_before = cluster.sim.pending_events
    cluster.run_for(5_000.0)
    assert cluster.sim.pending_events <= pending_before


def test_node_multicast_returns_unique_ids():
    model = complete_topology(4)
    cluster, _ = build_cluster(model, lambda ctx: PureEagerStrategy())
    node = cluster.nodes[2]
    ids = {node.multicast(f"m{i}") for i in range(10)}
    assert len(ids) == 10
