"""Empirical validation of the section 5.2 dimensioning estimates.

The paper sizes fanout and view degree from Eugster et al.'s analytic
estimates.  Here the same estimates (encoded in
:mod:`repro.gossip.config`) are checked against the behaviour of the
actual simulated protocol: run eager push gossip with every directed
link lossy (the fabric drops each packet independently; no connection
buffer fills), and compare measured miss/atomicity rates with the
formulas.

Run at fanout 6, where the predicted miss rate (~e^-5.94 = 0.26%) is
large enough to measure with a few thousand delivery opportunities.
"""

from __future__ import annotations

import math

import pytest

from repro.failures.gray import GrayFailureInjector, GrayFailurePlan
from repro.gossip.config import GossipConfig, atomic_delivery_probability
from repro.metrics.recorder import MetricsRecorder
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.strategies.flat import PureEagerStrategy
from repro.topology.simple import complete_topology

NODES = 60
FANOUT = 6
LOSS = 0.01
MESSAGES = 60


@pytest.fixture(scope="module")
def lossy_run():
    model = complete_topology(NODES, latency_ms=20.0)
    config = ClusterConfig(
        gossip=GossipConfig(fanout=FANOUT, rounds=6),
        overlay=None,  # oracle sampling: matches the analytic model
    )
    recorder = MetricsRecorder()
    cluster = Cluster(model, lambda ctx: PureEagerStrategy(), config=config, seed=8)
    GrayFailureInjector(cluster).apply(
        GrayFailurePlan(lossy_link_fraction=1.0, link_loss_probability=LOSS)
    )
    cluster.fabric.set_observer(recorder)
    cluster.set_multicast_hook(recorder.on_multicast)
    cluster.set_deliver(
        lambda node, mid, payload: recorder.on_app_deliver(node, mid, cluster.sim.now)
    )
    for index in range(MESSAGES):
        cluster.multicast(index % NODES, ("m", index))
        cluster.run_for(400.0)
    cluster.run_for(5_000.0)
    return recorder


def test_miss_rate_matches_branching_estimate(lossy_run):
    """Measured per-node miss rate within a factor of ~2.5 of e^-f_eff."""
    opportunities = MESSAGES * NODES
    misses = opportunities - lossy_run.delivery_count
    measured = misses / opportunities
    predicted = math.exp(-FANOUT * (1.0 - LOSS))
    assert measured < 2.5 * predicted + 1e-12
    # And the miss rate is not wildly optimistic either (the estimate is
    # known to be slightly conservative for finite populations).
    assert measured > predicted / 20


def test_atomicity_fraction_matches_formula(lossy_run):
    """Fraction of fully-delivered messages near the analytic estimate."""
    predicted = atomic_delivery_probability(NODES, FANOUT, LOSS)
    atomic = sum(
        1 for per_node in lossy_run.deliveries.values() if len(per_node) == NODES
    )
    measured = atomic / MESSAGES
    # Binomial noise over 60 messages is sizeable; require agreement
    # within +-0.15 absolute.
    assert measured == pytest.approx(predicted, abs=0.15)


def test_losses_actually_happened(lossy_run):
    assert lossy_run.dropped_packets["link-loss"] > 0
    # Only link loss: the estimates assume independent per-packet loss.
    assert lossy_run.dropped_packets["purged"] == 0
