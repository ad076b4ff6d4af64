"""Parallel experiment engine tests.

The engine's contract: results in submission order, bit-identical to the
serial loop for any worker count, serial fallback at ``workers=1`` (no
pool at all), failures propagated with the failing spec attached.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from functools import partial

import pytest

from repro.experiments import parallel
from repro.experiments.parallel import (
    ParallelExecutionError,
    resolve_workers,
    run_experiments,
    run_tasks,
)
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.experiments.scenarios import flat_factory, ttl_factory
from repro.experiments.workload import TrafficConfig
from repro.gossip.config import GossipConfig
from repro.runtime.cluster import ClusterConfig
from repro.topology.simple import complete_topology


@pytest.fixture(scope="module")
def model():
    return complete_topology(10, latency_ms=20.0, jitter_ms=4.0, seed=3)


def make_spec(factory, seed):
    return ExperimentSpec(
        strategy_factory=factory,
        cluster=ClusterConfig(gossip=GossipConfig(fanout=4, rounds=4)),
        traffic=TrafficConfig(messages=4, mean_interval_ms=80.0),
        warmup_ms=600.0,
        drain_ms=800.0,
        seed=seed,
    )


@dataclass(frozen=True)
class ExplodingFactory:
    """A picklable strategy factory that fails on node construction."""

    def __call__(self, ctx):
        raise RuntimeError("boom in worker")


# -- resolve_workers ---------------------------------------------------------------


def test_resolve_workers_defaults_and_auto():
    assert resolve_workers(1) == 1
    assert resolve_workers(4) == 4
    assert resolve_workers(None) >= 1
    assert resolve_workers(0) >= 1
    with pytest.raises(ValueError):
        resolve_workers(-2)


# -- run_experiments ---------------------------------------------------------------


def test_results_in_submission_order_and_equal_serial(model):
    specs = [make_spec(flat_factory(1.0), seed=100 + i) for i in range(4)]
    serial = [run_experiment(model, spec) for spec in specs]
    pooled = run_experiments(model, specs, workers=2)
    for s, p in zip(serial, pooled):
        assert s.summary == p.summary
        assert s.recorder.deliveries == p.recorder.deliveries


def test_mixed_strategies_keep_spec_to_result_alignment(model):
    specs = [
        make_spec(flat_factory(0.0), seed=7),
        make_spec(flat_factory(1.0), seed=7),
        make_spec(ttl_factory(2), seed=7),
    ]
    results = run_experiments(model, specs, workers=3)
    # Eager floods payload; lazy does not. Alignment shows in the data.
    assert (
        results[1].summary.payload_per_delivery
        > results[0].summary.payload_per_delivery
    )


def test_workers_1_runs_inline_without_a_pool(model, monkeypatch):
    def forbid(*args, **kwargs):
        raise AssertionError("workers=1 must not create a process pool")

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", forbid)
    specs = [make_spec(flat_factory(1.0), seed=5)]
    results = run_experiments(model, specs, workers=1)
    assert len(results) == 1


def test_empty_spec_list(model):
    assert run_experiments(model, [], workers=2) == []


def test_progress_callback_counts(model):
    specs = [make_spec(flat_factory(1.0), seed=i) for i in range(3)]
    seen = []
    run_experiments(
        model, specs, workers=2,
        progress=lambda done, total, spec: seen.append((done, total)),
    )
    assert sorted(seen) == [(1, 3), (2, 3), (3, 3)]


def test_child_failure_attaches_spec_and_traceback(model):
    bad = make_spec(ExplodingFactory(), seed=5)
    specs = [make_spec(flat_factory(1.0), seed=4), bad]
    with pytest.raises(ParallelExecutionError) as excinfo:
        run_experiments(model, specs, workers=2)
    assert excinfo.value.spec == bad
    assert "boom in worker" in excinfo.value.child_traceback


def test_inline_failure_attaches_spec(model):
    bad = make_spec(ExplodingFactory(), seed=5)
    with pytest.raises(ParallelExecutionError) as excinfo:
        run_experiments(model, [bad], workers=1)
    assert excinfo.value.spec == bad


def test_serial_run_leaves_no_worker_model_behind(model):
    """``workers=1`` installs the model inline like a pool initializer
    would; it must be cleared again on success and on a raising spec."""
    from repro.experiments import parallel

    run_experiments(model, [make_spec(flat_factory(1.0), seed=4)], workers=1)
    assert parallel._WORKER_MODEL is None
    with pytest.raises(ParallelExecutionError):
        run_experiments(model, [make_spec(ExplodingFactory(), seed=5)], workers=1)
    assert parallel._WORKER_MODEL is None


def test_unpicklable_spec_fails_fast_with_spec_attached(model):
    bad = make_spec(lambda ctx: None, seed=5)
    with pytest.raises(ParallelExecutionError) as excinfo:
        run_experiments(model, [bad], workers=2)
    assert excinfo.value.spec == bad
    with pytest.raises((pickle.PicklingError, AttributeError)):
        pickle.dumps(bad)


# -- run_tasks ---------------------------------------------------------------------


def _square(x):
    return x * x


def test_run_tasks_order_and_parallel_equality():
    tasks = [partial(_square, x) for x in range(6)]
    assert run_tasks(tasks, workers=1) == [0, 1, 4, 9, 16, 25]
    assert run_tasks(tasks, workers=2) == [0, 1, 4, 9, 16, 25]


def _raise_value_error():
    raise ValueError("task failed")


def test_run_tasks_failure_propagation():
    tasks = [partial(_square, 2), partial(_raise_value_error)]
    with pytest.raises(ParallelExecutionError) as excinfo:
        run_tasks(tasks, workers=2)
    assert "task failed" in excinfo.value.child_traceback
    with pytest.raises(ParallelExecutionError) as inline:
        run_tasks(tasks, workers=1)
    assert "task failed" in inline.value.child_traceback


def test_run_tasks_progress():
    seen = []
    run_tasks(
        [partial(_square, x) for x in range(4)],
        workers=1,
        progress=lambda done, total, task: seen.append((done, total)),
    )
    assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]
