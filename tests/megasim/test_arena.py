"""Arena lifecycle: packing, attachment, fallback, segment cleanup, and
the outcome region's way back."""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import signal
from contextlib import contextmanager
from dataclasses import replace

import pytest

np = pytest.importorskip("numpy")

import repro.megasim.arena as arena_module
from repro.experiments.parallel import ParallelExecutionError
from repro.experiments.scenarios import flat_factory
from repro.failures.gray import GrayFailurePlan
from repro.failures.injection import FailurePlan
from repro.megasim.adapter import (
    DenseTopology,
    PlaneTopology,
    UniformTopology,
    build_views,
    compile_faults,
)
from repro.megasim.arena import (
    MegasimArena,
    OutcomeRegion,
    clear_worker_env,
    current_env,
    install_worker_env,
)
from repro.megasim.runner import (
    MegasimSpec,
    derive_message_seeds,
    run_megasim,
)
from repro.topology.routing import ClientNetworkModel

SPEC = MegasimSpec(
    strategy_factory=flat_factory(0.7),
    nodes=200,
    fanout=5,
    rounds=6,
    messages=3,
    seed=9,
    topology="plane",
    view_degree=8,
    track_links=True,
)


def build_environment(spec=SPEC):
    topology = PlaneTopology(spec.nodes, seed=spec.seed, side=100.0)
    views = build_views(
        spec.nodes, spec.view_degree, np.random.default_rng(1)
    )
    faults = compile_faults(
        spec.nodes,
        spec.seed,
        gray=GrayFailurePlan(
            lossy_link_fraction=0.2, link_loss_probability=0.3
        ),
    )
    seeds = derive_message_seeds(spec)
    return topology, views, faults, seeds


def shm_segments() -> "set[str]":
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


@contextmanager
def pool_start_method(method: str):
    """Arenas and pools built in this block use start method ``method``."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(method, force=True)
    try:
        yield
    finally:
        multiprocessing.set_start_method(previous, force=True)


@pytest.fixture
def segment_path():
    """Arenas for workers that cannot inherit the parent's memory."""
    with pool_start_method("spawn"):
        yield


def test_forked_workers_inherit_the_environment() -> None:
    topology, views, faults, seeds = build_environment()
    before = shm_segments()
    with pool_start_method("fork"):
        with MegasimArena(SPEC, topology, views, faults, seeds) as arena:
            assert arena.name is None and arena.layout.arrays == ()
            # The parent's own arrays, not copies: fork never pickles them.
            assert arena.layout.inline["views"] is views
            if arena_module.shared_memory is not None:
                region = arena.layout.outcome_shm
                assert shm_segments() - before == {region.lstrip("/")}
    assert shm_segments() - before == set()


def test_roundtrip_preserves_every_array(segment_path) -> None:
    topology, views, faults, seeds = build_environment()
    with MegasimArena(SPEC, topology, views, faults, seeds) as arena:
        install_worker_env(arena.layout)
        try:
            env = current_env()
            px, py = topology.positions
            np.testing.assert_array_equal(env.topology.positions[0], px)
            np.testing.assert_array_equal(env.topology.positions[1], py)
            np.testing.assert_array_equal(env.views, views)
            np.testing.assert_array_equal(
                env.faults.lossy_keys, faults.lossy_keys
            )
            assert env.faults.loss_probability == faults.loss_probability
            assert env.seeds == seeds
            assert env.topology.size == SPEC.nodes
        finally:
            # Release the numpy views into the segment before closing
            # the attachment (a worker process just exits instead).
            env = None  # noqa: F841
            clear_worker_env()


def test_attached_arrays_are_read_only(segment_path) -> None:
    topology, views, faults, seeds = build_environment()
    with MegasimArena(SPEC, topology, views, faults, seeds) as arena:
        install_worker_env(arena.layout)
        try:
            env = current_env()
            with pytest.raises(ValueError):
                env.views[0, 0] = 1
        finally:
            env = None  # noqa: F841
            clear_worker_env()


def test_segment_unlinked_on_normal_exit(segment_path) -> None:
    topology, views, faults, seeds = build_environment()
    before = shm_segments()
    with MegasimArena(SPEC, topology, views, faults, seeds) as arena:
        name = arena.name
        assert (name is None) == (arena_module.shared_memory is None)
        if name is not None:
            assert shm_segments() - before
    assert shm_segments() - before == set()
    if name is not None:
        assert not os.path.exists(f"/dev/shm/{name.lstrip('/')}")


def test_close_is_idempotent() -> None:
    topology, views, faults, seeds = build_environment()
    arena = MegasimArena(SPEC, topology, views, faults, seeds)
    arena.close()
    arena.close()
    assert arena.name is None or True  # close() must not raise


def test_finalizer_reclaims_a_leaked_arena() -> None:
    topology, views, faults, seeds = build_environment()
    before = shm_segments()
    arena = MegasimArena(SPEC, topology, views, faults, seeds)
    del arena
    gc.collect()
    assert shm_segments() - before == set()


def test_inline_fallback_without_shared_memory(monkeypatch) -> None:
    monkeypatch.setattr(arena_module, "shared_memory", None)
    topology, views, faults, seeds = build_environment()
    arena = MegasimArena(SPEC, topology, views, faults, seeds)
    try:
        assert arena.name is None
        assert arena.layout.shm_name is None
        assert arena.layout.inline is not None
        install_worker_env(arena.layout)
        try:
            env = current_env()
            np.testing.assert_array_equal(env.views, views)
        finally:
            clear_worker_env()
    finally:
        arena.close()


def test_inline_fallback_results_match_shared_memory(monkeypatch) -> None:
    baseline = run_megasim(SPEC, workers=2)
    monkeypatch.setattr(arena_module, "shared_memory", None)
    fallback = run_megasim(SPEC, workers=2)
    for left, right in zip(baseline.outcomes, fallback.outcomes):
        assert right.deliver_slot.flags.owndata  # no region: it was pickled
        np.testing.assert_array_equal(left.deliver_slot, right.deliver_slot)
        np.testing.assert_array_equal(left.payload_sent, right.payload_sent)
        np.testing.assert_array_equal(left.link_keys, right.link_keys)
        np.testing.assert_array_equal(left.link_sends, right.link_sends)


def _explode(*args, **kwargs):
    raise RuntimeError("boom: injected mid-batch failure")


def test_segment_unlinked_when_worker_raises_mid_batch(monkeypatch) -> None:
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("monkeypatching across processes needs fork")
    import repro.megasim.runner as runner_module

    monkeypatch.setattr(runner_module, "disseminate", _explode)
    before = shm_segments()
    with pytest.raises(ParallelExecutionError, match="boom"):
        run_megasim(SPEC, workers=2)
    assert shm_segments() - before == set()


def _die(*args, **kwargs):
    os.kill(os.getpid(), signal.SIGKILL)


def test_killed_worker_is_a_named_error_and_leaves_no_segment(
    monkeypatch,
) -> None:
    # The outcome region is zero-filled: a batch that silently went
    # missing would read as "nobody delivered", so a dead worker must
    # never yield a result.
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("monkeypatching across processes needs fork")
    import repro.megasim.runner as runner_module

    monkeypatch.setattr(runner_module, "disseminate", _die)
    before = shm_segments()
    with pytest.raises(ParallelExecutionError, match="worker process died") as info:
        run_megasim(SPEC, workers=2)
    assert info.value.spec  # the batches left unfinished
    assert all(batch.indices for batch in info.value.spec)
    assert shm_segments() - before == set()


def live_regions() -> int:
    gc.collect()
    return sum(isinstance(o, OutcomeRegion) for o in gc.get_objects())


def test_outcome_columns_outlive_the_run_and_the_result() -> None:
    """Two workers, links tracked, crashes and loss: the four n-sized
    columns come back through the region, the link arrays by pickle, and
    together they are the serial run -- dtype, layout and bytes.  The
    region has no name once ``run_megasim`` has returned; its mapping
    lasts exactly as long as a column does."""
    spec = replace(
        SPEC,
        failure=FailurePlan(fraction=0.1),
        gray=GrayFailurePlan(
            lossy_link_fraction=1.0, link_loss_probability=0.2
        ),
    )
    before = shm_segments()
    serial = run_megasim(spec, workers=1)
    assert live_regions() == 0
    pooled = run_megasim(spec, workers=2)
    assert shm_segments() - before == set()
    assert pooled.retries > 0 and pooled.failed
    for index in range(spec.messages):
        for name in (
            "deliver_slot", "carried_round", "payload_sent",
            "payload_received", "link_keys", "link_sends",
        ):
            ours = getattr(pooled.outcomes[index], name)
            theirs = getattr(serial.outcomes[index], name)
            assert ours.dtype == theirs.dtype
            assert ours.flags.c_contiguous and ours.flags.writeable
            assert ours.tobytes() == theirs.tobytes()
        del ours, theirs
    assert pooled.summary == serial.summary
    assert pooled.structure == serial.structure
    held = pooled.outcomes[-1].deliver_slot
    if arena_module.shared_memory is not None:
        assert not held.flags.owndata  # a row of the region, not a copy
        assert live_regions() == 1
    del pooled
    assert shm_segments() - before == set()
    np.testing.assert_array_equal(held, serial.outcomes[-1].deliver_slot)
    del held
    assert live_regions() == 0


def test_serial_arena_clears_worker_env() -> None:
    run_megasim(SPEC, workers=1)
    with pytest.raises(RuntimeError):
        current_env()


def test_uniform_topology_needs_no_arrays_beyond_views(segment_path) -> None:
    spec = MegasimSpec(
        strategy_factory=flat_factory(1.0),
        nodes=64,
        fanout=4,
        rounds=5,
        messages=2,
        seed=3,
        topology="uniform",
        view_degree=6,
    )
    topology = UniformTopology(spec.nodes, latency_ms=spec.round_ms)
    views = build_views(spec.nodes, spec.view_degree, np.random.default_rng(2))
    seeds = derive_message_seeds(spec)
    with MegasimArena(spec, topology, views, None, seeds) as arena:
        names = [name for name, _ in arena.layout.arrays] or (
            sorted(arena.layout.inline or {})
        )
        assert list(names) == ["views"]
        install_worker_env(arena.layout)
        try:
            env = current_env()
            assert isinstance(env.topology, UniformTopology)
            assert env.faults is None
            assert env.topology.round_ms == spec.round_ms
        finally:
            env = None  # noqa: F841
            clear_worker_env()


CARRIED_TOPOLOGIES = {
    "dense": lambda: DenseTopology(ClientNetworkModel.uniform(SPEC.nodes, 50.0)),
    "uniform": lambda: UniformTopology(SPEC.nodes, latency_ms=50.0),
}


@pytest.mark.parametrize("shm", [True, False], ids=["shm", "no-shm"])
@pytest.mark.parametrize("kind", sorted(CARRIED_TOPOLOGIES))
def test_carried_topology_roundtrip(
    kind: str, shm: bool, monkeypatch, segment_path
) -> None:
    """A topology that is not position arrays rides the layout as the
    object itself; views and fault tables still come from the segment."""
    if not shm:
        monkeypatch.setattr(arena_module, "shared_memory", None)
    topology = CARRIED_TOPOLOGIES[kind]()
    _, views, faults, seeds = build_environment()
    before = shm_segments()
    with MegasimArena(SPEC, topology, views, faults, seeds) as arena:
        if not shm:
            assert arena.name is None and arena.layout.inline is not None
        assert arena.layout.topology is topology
        assert arena.layout.plane_side is None
        names = [name for name, _ in arena.layout.arrays] or sorted(
            arena.layout.inline or {}
        )
        assert names == ["faults.lossy_keys", "views"]
        # Ship the layout the way a spawned worker receives it.
        install_worker_env(pickle.loads(pickle.dumps(arena.layout)))
        try:
            env = current_env()
            assert type(env.topology) is type(topology)
            assert env.topology.size == topology.size
            assert env.topology.round_ms == topology.round_ms
            src = np.arange(SPEC.nodes, dtype=np.int32)
            for metric in ("latency", "distance"):
                np.testing.assert_array_equal(
                    env.topology.metric(metric, src, src[::-1]),
                    topology.metric(metric, src, src[::-1]),
                )
            np.testing.assert_array_equal(
                env.topology.best_mask(0.1), topology.best_mask(0.1)
            )
            np.testing.assert_array_equal(env.views, views)
            np.testing.assert_array_equal(
                env.faults.lossy_keys, faults.lossy_keys
            )
            assert not env.views.flags.writeable
        finally:
            env = None  # noqa: F841
            clear_worker_env()
    assert shm_segments() - before == set()
