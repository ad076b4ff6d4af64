"""The paper's fixed-T request schedule under gray failures.

A 20%-slow-node + 5%-lossy-link profile with pure lazy push, so every
delivery rides the IWANT/retry path.  Everything is seeded, so two runs
of the same spec must agree on every counter.
"""

from __future__ import annotations

from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.experiments.workload import TrafficConfig
from repro.failures.gray import GrayFailurePlan
from repro.gossip.config import GossipConfig
from repro.runtime.cluster import ClusterConfig
from repro.strategies.flat import PureLazyStrategy
from repro.topology.simple import complete_topology

#: 20% of nodes degraded hard (service time beyond the 400 ms retry
#: period, uplink at 1/8th), 5% of directed links lossy and laggy.
GRAY = GrayFailurePlan(
    slow_fraction=0.2,
    slow_bandwidth_factor=8.0,
    slow_service_delay_ms=500.0,
    lossy_link_fraction=0.05,
    link_loss_probability=0.25,
    link_extra_latency_ms=50.0,
)


def run_gray(seed: int = 29):
    model = complete_topology(40, latency_ms=20.0)
    config = ClusterConfig(gossip=GossipConfig.for_population(model.size, fanout=6))
    spec = ExperimentSpec(
        strategy_factory=lambda ctx: PureLazyStrategy(),
        cluster=config,
        traffic=TrafficConfig(messages=25, mean_interval_ms=200.0),
        warmup_ms=3_000.0,
        drain_ms=8_000.0,
        seed=seed,
        gray=GRAY,
    )
    return run_experiment(model, spec)


def test_gray_failure_run_is_deterministic():
    first = run_gray()
    second = run_gray()
    # The retry path actually engaged.
    assert first.recovery["retries"] > 0
    assert first.recovery == second.recovery
    assert first.summary.delivery_ratio == second.summary.delivery_ratio
    assert first.recorder.sent_packets == second.recorder.sent_packets
