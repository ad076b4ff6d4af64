"""Dispatch invariance: the one fan-out path must be byte-identical for
every strategy, topology kind, worker count, and batch size."""

from __future__ import annotations

import random
from dataclasses import replace
from functools import partial

import pytest

np = pytest.importorskip("numpy")

import repro.megasim.arena as arena_module
from repro.experiments.parallel import ParallelExecutionError, run_tasks
from repro.experiments.scenarios import (
    flat_factory,
    hybrid_factory,
    radius_factory,
    ranked_factory,
    ttl_factory,
)
from repro.failures.gray import GrayFailurePlan
from repro.megasim.adapter import DenseTopology
from repro.megasim.arena import MegasimArena
from repro.megasim.runner import (
    MegasimResult,
    MegasimSpec,
    default_batch_size,
    run_megasim,
)
from repro.topology.geometry import Point
from repro.topology.routing import ClientNetworkModel
from tests.megasim.test_arena import pool_start_method

STRATEGIES = {
    "flat": flat_factory(0.6),
    "ttl": ttl_factory(2),
    "radius": radius_factory(metric="distance"),
    "ranked": ranked_factory(),
    "hybrid": hybrid_factory(),
}


def spec_for(factory, **overrides) -> MegasimSpec:
    defaults = dict(
        strategy_factory=factory,
        nodes=250,
        fanout=5,
        rounds=7,
        messages=5,
        seed=13,
        topology="plane",
        view_degree=10,
        track_links=True,
        gray=GrayFailurePlan(
            lossy_link_fraction=0.15, link_loss_probability=0.25
        ),
    )
    defaults.update(overrides)
    return MegasimSpec(**defaults)


def fingerprints(result: MegasimResult) -> "list[bytes]":
    blobs = []
    for outcome in result.outcomes:
        blob = (
            outcome.deliver_slot.tobytes()
            + outcome.carried_round.tobytes()
            + outcome.payload_sent.tobytes()
            + outcome.payload_received.tobytes()
            + str((outcome.origin, outcome.retries)).encode()
        )
        if outcome.link_keys is not None:
            blob += outcome.link_keys.tobytes()
            blob += outcome.link_sends.tobytes()
        blobs.append(blob)
    return blobs


def geometric_model(n: int) -> ClientNetworkModel:
    rng = random.Random(5)
    points = [
        Point(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0))
        for _ in range(n)
    ]
    latency = [[a.distance_to(b) for b in points] for a in points]
    hops = [[int(i != j) for j in range(n)] for i in range(n)]
    return ClientNetworkModel(latency, hops, points)


def assert_same_run(left: MegasimResult, right: MegasimResult) -> None:
    assert fingerprints(left) == fingerprints(right)
    assert left.summary == right.summary
    assert left.structure == right.structure


#: ``fork`` workers inherit the environment; ``forkserver`` ones (Python
#: 3.14's POSIX default) attach the shared segment.
START_METHODS = ("fork", "forkserver")


def arenas_built(monkeypatch) -> "list[MegasimArena]":
    built = []
    init = MegasimArena.__init__

    def record(self, *args, **kwargs) -> None:
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(MegasimArena, "__init__", record)
    return built


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_pooled_matches_serial_for_every_strategy(name: str, monkeypatch) -> None:
    # workers=1 installs the parent's own objects; workers=2 hands the
    # environment to each pool worker's initializer -- inherited under
    # fork, through the shared segment otherwise.
    spec = spec_for(STRATEGIES[name])
    serial = run_megasim(spec, workers=1)
    arenas = arenas_built(monkeypatch)
    for method in START_METHODS:
        with pool_start_method(method):
            assert_same_run(serial, run_megasim(spec, workers=2))
        arena = arenas.pop()
        if arena_module.shared_memory is not None:
            assert arena.layout.outcome_shm is not None
            assert (arena.name is None) == (method == "fork")
        assert (arena.layout.inline is not None) == (arena.name is None)


class _Unpicklable:
    def __reduce__(self):
        raise TypeError("this payload refuses to be pickled")


_INSTALLED = None


def _install(payload) -> None:
    global _INSTALLED
    _INSTALLED = payload


def _installed_type() -> str:
    return type(_INSTALLED).__name__


@pytest.mark.parametrize("method", START_METHODS)
def test_initializer_payload_is_pickled_only_when_workers_need_it(
    method: str,
) -> None:
    run = partial(
        run_tasks, [_installed_type, _installed_type], workers=2,
        initializer=_install, initargs=(_Unpicklable(),),
    )
    with pool_start_method(method):
        if method == "fork":
            assert run() == ["_Unpicklable", "_Unpicklable"]
        else:
            with pytest.raises(
                ParallelExecutionError, match="initializer arguments"
            ):
                run()


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_dense_topology_pooled_matches_serial(name: str) -> None:
    # A wrapped event-kernel model is not position arrays: it rides the
    # layout as an object, once per worker.  A geometric model, so
    # Radius/Ranked/Hybrid read real per-pair metrics.
    model = geometric_model(40)
    spec = spec_for(STRATEGIES[name], nodes=model.size)
    serial = run_megasim(spec, workers=1, topology=DenseTopology(model))
    pooled = run_megasim(spec, workers=2, topology=DenseTopology(model))
    assert_same_run(serial, pooled)
    assert serial.summary.deliveries > 0


@pytest.mark.parametrize("batch_size", [1, 3, 100])
def test_batch_size_invariance(batch_size: int) -> None:
    # B=1 (one message per dispatch), B=3 (odd, does not divide 5) and
    # B=100 (> messages: one batch carries the whole run) must all
    # reproduce the default batching byte-for-byte.
    spec = spec_for(STRATEGIES["ttl"])
    baseline = run_megasim(spec, workers=2)
    probe = run_megasim(spec, workers=2, batch_size=batch_size)
    assert fingerprints(baseline) == fingerprints(probe)


def test_worker_count_invariance_across_batch_boundaries() -> None:
    spec = spec_for(STRATEGIES["flat"])
    serial = run_megasim(spec, workers=1, batch_size=2)
    pooled = run_megasim(spec, workers=3, batch_size=2)
    assert fingerprints(serial) == fingerprints(pooled)


def test_default_batch_size_is_one_message_until_workers_have_many_tasks() -> None:
    # The benchmark's 32 messages over 2 workers: 32 one-message tasks.
    assert default_batch_size(32, 2) == 1
    assert default_batch_size(64, 4) == 1
    assert default_batch_size(7, 2) == 1
    assert default_batch_size(1, 8) == 1
    assert default_batch_size(64, 2) == 2
    assert default_batch_size(1000, 2) == 31
    for messages in range(1, 300):
        for workers in (1, 2, 3, 8):
            size = default_batch_size(messages, workers)
            tasks = -(-messages // size)
            assert size >= 1
            assert tasks >= min(messages, 16 * workers)


def test_bad_batch_size_rejected() -> None:
    with pytest.raises(ValueError, match="batch_size"):
        run_megasim(spec_for(STRATEGIES["flat"]), batch_size=0)


def test_mismatched_views_rejected() -> None:
    spec = spec_for(STRATEGIES["flat"])
    wrong = np.zeros((spec.nodes, 3), dtype=np.int32)
    with pytest.raises(ValueError, match="views"):
        run_megasim(spec, views=wrong)


def test_structure_metrics_follow_link_tracking() -> None:
    tracked = run_megasim(spec_for(STRATEGIES["ttl"]))
    assert tracked.structure is not None
    assert 0.0 < tracked.structure.top_link_share <= 1.0
    assert tracked.structure.used_links > 0
    assert tracked.structure.effective_degree > 0.0
    untracked = run_megasim(
        replace(spec_for(STRATEGIES["ttl"]), track_links=False)
    )
    assert untracked.structure is None
