"""Failure-model payloads across the process boundary.

Crash plans (``FailurePlan``) and lossy links (``GrayFailurePlan``)
cross a pickle boundary whenever the parallel engine runs them.  These
tests pin down that a fully loaded spec -- crash plan plus lossy-link
plan -- round-trips through pickle, runs inside pool workers, and
produces bit-identical results to the serial path.
"""

from __future__ import annotations

import math
import pickle

import pytest

from repro.experiments.parallel import run_experiments
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.experiments.scenarios import flat_factory
from repro.experiments.workload import TrafficConfig
from repro.failures.gray import GrayFailurePlan
from repro.failures.injection import FailurePlan
from repro.gossip.config import GossipConfig
from repro.runtime.cluster import ClusterConfig
from repro.topology.simple import complete_topology

#: Every directed link drops 10% (the ``repro run --loss`` shape), so lost
#: requests and payloads send the request queue round its retries.
GRAY = GrayFailurePlan(lossy_link_fraction=1.0, link_loss_probability=0.1)

@pytest.fixture(scope="module")
def model():
    return complete_topology(14, latency_ms=20.0, jitter_ms=4.0, seed=5)


def loaded_spec(seed: int = 31) -> ExperimentSpec:
    """A spec exercising every failure path at once."""
    return ExperimentSpec(
        strategy_factory=flat_factory(0.3),
        cluster=ClusterConfig(gossip=GossipConfig(fanout=4, rounds=4)),
        traffic=TrafficConfig(messages=6, mean_interval_ms=100.0),
        warmup_ms=1_000.0,
        drain_ms=2_000.0,
        seed=seed,
        failure=FailurePlan(fraction=0.15),
        gray=GRAY,
    )


def test_loaded_spec_pickle_round_trip():
    spec = loaded_spec()
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert clone.gray == GRAY


def test_gray_and_crash_results_pickle(model):
    result = run_experiment(model, loaded_spec())
    clone = pickle.loads(pickle.dumps(result))
    assert clone.summary == result.summary
    assert clone.recovery == result.recovery
    assert clone.failed == result.failed


def test_serial_equals_parallel_under_gray_and_crashes(model):
    specs = [loaded_spec(seed=31 + i) for i in range(3)]
    serial = [run_experiment(model, spec) for spec in specs]
    pooled = run_experiments(model, specs, workers=2)
    for s, p in zip(serial, pooled):
        assert s.summary == p.summary
        assert s.recovery == p.recovery
        assert s.failed == p.failed
        assert s.recorder.deliveries == p.recorder.deliveries
        assert s.recorder.dropped_packets == p.recorder.dropped_packets


def test_crashes_and_retries_actually_happen(model):
    """The crash and retry paths are exercised, not just configured."""
    result = run_experiment(model, loaded_spec())
    assert len(result.failed) == 2
    assert result.recovery["retries"] > 0


def test_loaded_run_stays_sane(model):
    """Deliveries flow despite crashes and lossy links."""
    result = run_experiment(model, loaded_spec())
    ratio = result.summary.delivery_ratio
    assert not math.isnan(ratio)
    assert ratio > 0.3
