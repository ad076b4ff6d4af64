"""Gossip vs structured tree vs pull, at BENCH scale.

Section 1 states the trade-off qualitatively: structured multicast uses
resources better while the network is stable but must rebuild its tree
on failure; gossip pays redundancy for resilience; the Payload Scheduler
aims at both.  These tests measure all three corners through the one
experiment harness, paired on the same seed: same victims, same origins,
same send times.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.experiments.baselines import (
    PullSystem,
    TreeSystem,
    compare_baselines,
    compare_under_failures,
)
from repro.experiments.figures import build_model
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import flat_factory
from repro.failures.injection import FailureInjector, FailurePlan
from repro.runtime.cluster import Cluster
from tests.paper import BENCH


def test_systems_and_gossip_share_victims_origins_and_send_times():
    """One seed pairs every row: the tree and pull runs lose the gossip
    run's victims and multicast from its origins at its times."""
    model = build_model(BENCH)
    spec = BENCH.spec(
        flat_factory(1.0), seed=BENCH.seed + 500, failure=FailurePlan(fraction=0.2)
    )
    gossip = run_experiment(model, spec)
    assert gossip.failed
    for system in (TreeSystem(), PullSystem()):
        result = run_experiment(model, replace(spec, system=system))
        assert result.failed == gossip.failed
        assert result.alive == gossip.alive
        assert sorted(result.recorder.multicasts.values()) == sorted(
            gossip.recorder.multicasts.values()
        )
        assert math.isnan(result.mean_receipt_round)
        assert result.recovery == {"retries": 0}


@pytest.fixture(scope="module")
def stable_rows():
    return compare_baselines(BENCH)


def test_all_series_present(stable_rows):
    assert {row["series"] for row in stable_rows} == {
        "gossip eager",
        "gossip TTL",
        "gossip hybrid",
        "tree",
        "pull",
    }


def test_stable_network_everyone_delivers(stable_rows):
    for row in stable_rows:
        assert row["delivery_pct"] > 99.0, row


def test_tree_is_cheapest_and_pull_is_slowest(stable_rows):
    by_series = {row["series"]: row for row in stable_rows}
    tree, pull = by_series["tree"], by_series["pull"]
    eager, hybrid = by_series["gossip eager"], by_series["gossip hybrid"]
    # Structured multicast: exactly-once payload, best latency, least bytes.
    assert tree["payload_per_msg"] <= 1.05
    assert tree["latency_ms"] < eager["latency_ms"]
    assert tree["total_MB"] < 0.5 * hybrid["total_MB"]
    # Eager gossip pays ~fanout payloads for its speed.
    assert eager["payload_per_msg"] > 9.0
    # The hybrid sits between: a fraction of eager's traffic at
    # competitive latency.
    assert hybrid["payload_per_msg"] < 0.5 * eager["payload_per_msg"]
    assert hybrid["latency_ms"] < 2.5 * eager["latency_ms"]
    # Pull pays its period in latency despite unit payload cost -- the
    # section 7 distinction from lazy push.
    assert pull["payload_per_msg"] <= 1.2
    assert pull["latency_ms"] > 3 * eager["latency_ms"]


@pytest.fixture(scope="module")
def broken_rows():
    """20% of the most central nodes killed, tree left unrepaired."""
    rows = compare_under_failures(BENCH, failed_fraction=0.2)
    return {row["series"]: row for row in rows}


def test_targeted_failure_comparison(broken_rows):
    # Gossip barely notices losing exactly its best/hub nodes.
    assert broken_rows["gossip eager"]["delivery_pct"] > 99.0
    assert broken_rows["gossip ranked"]["delivery_pct"] > 99.0
    # The unrepaired tree loses whole subtrees.
    assert broken_rows["tree (no repair)"]["delivery_pct"] < 90.0


def test_repair_recovers_tree_deliveries(broken_rows):
    repaired = compare_under_failures(
        BENCH, failed_fraction=0.2, repair_delay_ms=5_000.0
    )
    repaired_pct = next(
        r["delivery_pct"] for r in repaired if r["series"] == "tree (repaired)"
    )
    # Repair restores most deliveries -- at the cost of the rebuild
    # machinery gossip never needs.
    assert repaired_pct > broken_rows["tree (no repair)"]["delivery_pct"] + 5.0


def test_random_target_mode():
    rows = compare_under_failures(BENCH, failed_fraction=0.2, target="random")
    assert any(row["series"].startswith("tree") for row in rows)
    with pytest.raises(ValueError):
        compare_under_failures(BENCH, target="bogus")


def test_repair_excludes_the_nodes_silenced_when_it_fires():
    """The oracle detector reads the fabric at repair time, not at build."""
    model = build_model(BENCH)
    cluster = Cluster(model, None, system=TreeSystem(repair_at_ms=100.0))
    injector = FailureInjector(cluster)
    cluster.run_for(50.0)
    injector.fail_nodes([3, 7])
    cluster.run_for(100.0)
    injector.fail_nodes([9])
    assert cluster.system.repairs == 1
    assert cluster.system._excluded == {3, 7}


def test_repair_delay_must_be_positive():
    with pytest.raises(ValueError, match="repair_delay_ms"):
        compare_under_failures(BENCH, repair_delay_ms=0.0)
