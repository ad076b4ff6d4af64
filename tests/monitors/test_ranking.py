"""Ranking (oracle + gossip) tests."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.experiments.scenarios import BestLowClasses
from repro.monitors import ranking as ranking_module
from repro.monitors.ranking import (
    GossipRanking,
    OracleRanking,
    RankingConfig,
    oracle_ranking,
)
from repro.network.fabric import FabricConfig, NetworkFabric
from repro.network.transport import DatagramTransport
from repro.sim.engine import Simulator
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


def build_gossip_ranking(n=12, best_count=2, seed=5, scores=None):
    """n agents over a fast datagram fabric; node scores default to the
    node id (node 0 is globally best)."""
    sim = Simulator(seed=seed)
    model = complete_topology(n, latency_ms=5.0)
    fabric = NetworkFabric(sim, model, FabricConfig(bandwidth_bytes_per_ms=None))
    transport = DatagramTransport(fabric)
    scores = scores or {node: float(node) for node in range(n)}
    agents = []
    config = RankingConfig(
        best_count=best_count, list_capacity=best_count * 4,
        exchange_period_ms=100.0, exchange_jitter_ms=0.0,
    )
    for node in range(n):
        endpoint = transport.endpoint(node)
        agent = GossipRanking(
            sim,
            node,
            endpoint.send,
            neighbors=lambda node=node: [p for p in range(n) if p != node],
            local_score=lambda node=node: scores[node],
            config=config,
        )
        endpoint.set_receiver(agent.handle)
        agents.append(agent)
    return sim, agents


def test_gossip_ranking_converges_to_true_best_set():
    sim, agents = build_gossip_ranking(n=12, best_count=3)
    for agent in agents:
        agent.start()
    sim.run(until=5_000.0)
    for agent in agents:
        agent.stop()
        assert agent.best_nodes() == [0, 1, 2]
        assert agent.is_best(0) and agent.is_best(2)
        assert not agent.is_best(3)


def test_gossip_ranking_is_approximate_before_convergence():
    sim, agents = build_gossip_ranking(n=12, best_count=3)
    # Without any exchanges every node only knows itself.
    assert agents[7].best_nodes() == [7]
    assert not agents[7].is_best(0)


def test_unknown_node_is_not_best():
    _, agents = build_gossip_ranking()
    assert not agents[0].is_best(999)


def test_infinite_local_score_not_advertised():
    sim, agents = build_gossip_ranking(
        n=4, best_count=2, scores={0: float("inf"), 1: 1.0, 2: 2.0, 3: 3.0}
    )
    for agent in agents:
        agent.start()
    sim.run(until=3_000.0)
    assert 0 not in agents[1].best_nodes()


def test_list_capacity_bounds_state():
    sim, agents = build_gossip_ranking(n=20, best_count=2)
    for agent in agents:
        agent.start()
    sim.run(until=5_000.0)
    for agent in agents:
        assert len(agent._scores) <= agent.config.list_capacity


def test_ranking_config_validation():
    with pytest.raises(ValueError):
        RankingConfig(best_count=0)
    with pytest.raises(ValueError):
        RankingConfig(best_count=5, list_capacity=3)
    with pytest.raises(ValueError):
        RankingConfig(exchange_period_ms=0)


def test_score_ranking_picks_lowest_scores():
    from repro.monitors.ranking import ScoreRanking

    ranking = ScoreRanking({1: 5.0, 2: 1.0, 3: 3.0, 4: 9.0}, count=2)
    assert ranking.best_nodes == frozenset({2, 3})
    assert ranking.is_best(2)
    assert not ranking.is_best(4)


def test_score_ranking_tie_break_is_deterministic():
    from repro.monitors.ranking import ScoreRanking

    ranking = ScoreRanking({5: 1.0, 3: 1.0, 9: 1.0}, count=2)
    assert ranking.best_nodes == frozenset({3, 5})


def test_score_ranking_validation():
    from repro.monitors.ranking import ScoreRanking

    with pytest.raises(ValueError):
        ScoreRanking({}, count=1)
    with pytest.raises(ValueError):
        ScoreRanking({1: 1.0}, count=0)
