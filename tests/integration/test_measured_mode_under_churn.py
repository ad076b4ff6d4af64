"""Fully-measured operation under churn: a mid-run crash.

The hardest configuration this library supports: no oracles anywhere --
shuffled overlay membership, runtime PING/PONG latency monitor with
failure detection, gossip-computed ranking -- while 10% of the nodes
crash halfway through the traffic, after monitors and ranking have
converged around them.  The paper's robustness claim ("correctness is
ensured regardless of the strategy used by each peer") should make this
configuration merely slower to optimize, never incorrect.
"""

from __future__ import annotations

import random

import pytest

from repro.failures.injection import FailureInjector
from repro.gossip.config import GossipConfig
from repro.metrics.recorder import MetricsRecorder
from repro.monitors.latency import LatencyMonitorConfig
from repro.monitors.ranking import RankingConfig
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.strategies.ranked import RankedStrategy
from repro.topology.simple import complete_topology


@pytest.fixture(scope="module")
def crashy_run():
    n = 20
    model = complete_topology(n, latency_ms=20.0, jitter_ms=10.0, seed=44)
    config = ClusterConfig(
        gossip=GossipConfig(fanout=6, rounds=4),
        enable_latency_monitor=True,
        latency_monitor=LatencyMonitorConfig(
            probe_period_ms=400.0, suspicion_threshold=4
        ),
        enable_gossip_ranking=True,
        ranking=RankingConfig(best_count=4, list_capacity=16,
                              exchange_period_ms=400.0),
    )

    def factory(ctx):
        return RankedStrategy(ctx.node, ctx.ranking, ctx.retry_period_ms)

    recorder = MetricsRecorder()
    cluster = Cluster(model, factory, config=config, seed=45)
    cluster.fabric.set_observer(recorder)
    cluster.set_multicast_hook(recorder.on_multicast)
    cluster.set_deliver(
        lambda node, mid, payload: recorder.on_app_deliver(node, mid, cluster.sim.now)
    )
    cluster.start()
    cluster.run_for(8_000.0)  # monitors + ranking converge

    mids = []
    for index in range(10):
        if index == 5:
            crashed = random.Random(46).sample(range(n), n // 10)
            FailureInjector(cluster).fail_nodes(crashed)
        alive = cluster.alive_nodes
        mids.append(cluster.multicast(alive[index % len(alive)], ("m", index)))
        cluster.run_for(500.0)
    cluster.run_for(8_000.0)
    cluster.stop()
    return cluster, recorder, mids


def test_delivery_stays_high(crashy_run):
    cluster, recorder, mids = crashy_run
    n = cluster.size
    total = sum(len(recorder.deliveries[mid]) for mid in mids)
    # 10% of nodes are dead for the second half; everyone else delivers.
    assert total >= len(mids) * n * 0.82


def test_gossip_ranking_still_produces_hubs(crashy_run):
    cluster, recorder, _ = crashy_run
    views = [set(node.ranking.best_nodes()) for node in cluster.nodes]
    reference = max(
        views, key=lambda view: sum(1 for other in views if view & other)
    )
    overlap = sum(1 for view in views if len(view & reference) >= 2)
    # Most nodes agree on at least half of the best set despite the crash.
    assert overlap >= cluster.size * 0.6


def test_no_node_delivered_duplicates(crashy_run):
    cluster, recorder, mids = crashy_run
    for mid in mids:
        nodes = list(recorder.deliveries[mid])
        assert len(nodes) == len(set(nodes))
