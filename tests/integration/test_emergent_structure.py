"""Integration tests for the paper's central claim: structure emerges
from payload scheduling without touching the gossip pattern."""

from __future__ import annotations

import pytest

from repro.metrics.structure import link_concentration, node_concentration
from repro.strategies.flat import PureEagerStrategy
from repro.strategies.radius import RadiusStrategy
from repro.strategies.ranked import RankedStrategy
from repro.topology.simple import random_metric_topology
from tests.conftest import build_cluster


def run_traffic(model, factory, messages=25, seed=13):
    cluster, recorder = build_cluster(model, factory, seed=seed)
    cluster.start()
    cluster.run_for(4_000.0)
    for index in range(messages):
        cluster.multicast(index % model.size, ("m", index))
        cluster.run_for(150.0)
    cluster.run_for(6_000.0)
    cluster.stop()
    return recorder


def distance_row(ctx):
    return [ctx.model.distance(ctx.node, peer) for peer in range(ctx.model.size)]


@pytest.fixture(scope="module")
def geo_model():
    return random_metric_topology(30, mean_latency_ms=50.0, seed=8)


def test_radius_emerges_mesh_structure(geo_model):
    """Radius concentrates payload on short links: top-5% share well
    above the eager baseline (Fig. 4b vs 4a)."""
    eager = run_traffic(geo_model, lambda ctx: PureEagerStrategy())
    radius = run_traffic(
        geo_model,
        lambda ctx: RadiusStrategy(
            distance_row(ctx),
            radius=200.0,
            first_request_delay_ms=50.0,
        ),
    )
    eager_share = link_concentration(eager.link_payload_counts, 0.05)
    radius_share = link_concentration(radius.link_payload_counts, 0.05)
    assert radius_share > 1.5 * eager_share


def test_radius_payload_flows_over_short_links(geo_model):
    """Weight payload transmissions by link distance: the radius run's
    mean payload-carrying distance must be shorter than eager's."""
    def mean_distance(recorder):
        total, count = 0.0, 0
        for (src, dst), payloads in recorder.link_payload_counts.items():
            total += geo_model.distance(src, dst) * payloads
            count += payloads
        return total / count

    eager = run_traffic(geo_model, lambda ctx: PureEagerStrategy())
    radius = run_traffic(
        geo_model,
        lambda ctx: RadiusStrategy(
            distance_row(ctx),
            radius=200.0,
            first_request_delay_ms=50.0,
        ),
    )
    assert mean_distance(radius) < 0.8 * mean_distance(eager)


def test_ranked_emerges_hub_structure(geo_model):
    """Ranked concentrates transmissions on the best nodes (Fig. 4c)."""
    best = frozenset(range(3))  # 10% of 30 nodes
    ranked = run_traffic(geo_model, lambda ctx: RankedStrategy(ctx.node, best))
    eager = run_traffic(geo_model, lambda ctx: PureEagerStrategy())
    ranked_hubshare = node_concentration(ranked.node_payload_sent, 0.1)
    eager_hubshare = node_concentration(eager.node_payload_sent, 0.1)
    assert ranked_hubshare > 1.5 * eager_hubshare
    # The designated best nodes are the top transmitters.
    top3 = sorted(
        ranked.node_payload_sent, key=ranked.node_payload_sent.get, reverse=True
    )[:3]
    assert set(top3) == best


def test_gossip_pattern_unchanged_by_strategy(geo_model):
    """The IHAVE+MSG transmission pattern (who gossips to whom) follows
    the same fanout regardless of strategy -- only payload timing moves.
    Total gossip transmissions (eager MSG + IHAVE) per run must match
    across strategies up to retry noise."""
    eager = run_traffic(geo_model, lambda ctx: PureEagerStrategy())
    ranked = run_traffic(
        geo_model,
        lambda ctx: RankedStrategy(ctx.node, frozenset({0, 1, 2})),
    )
    eager_gossip = eager.sent_packets["MSG"]
    ranked_gossip = ranked.sent_packets["MSG"] + ranked.sent_packets["IHAVE"]
    # IWANT-answered MSGs add to ranked's count; subtract them.
    ranked_gossip -= ranked.sent_packets["IWANT"]
    assert ranked_gossip == pytest.approx(eager_gossip, rel=0.1)
