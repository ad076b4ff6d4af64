"""A mid-run crash under the shuffled overlay and the oracle ranking.

Ranked over the paper's membership (a shuffled NeEM-style overlay)
while 10% of the nodes crash halfway through the traffic, after the
overlay has mixed around them.  Views keep the dead entries, so fanout
is wasted on them; the paper's robustness claim ("correctness is
ensured regardless of the strategy used by each peer") should make this
configuration merely costlier, never incorrect.
"""

from __future__ import annotations

import random

import pytest

from repro.experiments.scenarios import ranked_factory
from repro.failures.injection import FailureInjector
from repro.gossip.config import GossipConfig
from repro.metrics.recorder import MetricsRecorder
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.topology.simple import complete_topology


@pytest.fixture(scope="module")
def crashy_run():
    n = 20
    model = complete_topology(n, latency_ms=20.0, jitter_ms=10.0, seed=44)
    config = ClusterConfig(gossip=GossipConfig(fanout=6, rounds=4))
    recorder = MetricsRecorder()
    cluster = Cluster(model, ranked_factory(), config=config, seed=45)
    cluster.fabric.set_observer(recorder)
    cluster.set_multicast_hook(recorder.on_multicast)
    cluster.set_deliver(
        lambda node, mid, payload: recorder.on_app_deliver(node, mid, cluster.sim.now)
    )
    cluster.start()
    cluster.run_for(8_000.0)  # the overlay mixes

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


def test_no_node_delivered_duplicates(crashy_run):
    cluster, recorder, mids = crashy_run
    for mid in mids:
        nodes = list(recorder.deliveries[mid])
        assert len(nodes) == len(set(nodes))
