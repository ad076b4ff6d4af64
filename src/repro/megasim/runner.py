"""Multi-message megasim runs: spec in, summary-ready result out.

A :class:`MegasimSpec` is the vector backend's analogue of
:class:`~repro.experiments.runner.ExperimentSpec`: one frozen, picklable
description of a run.  Messages are mutually independent epidemics, so
:func:`run_megasim` fans them out through
:func:`repro.experiments.parallel.run_tasks` -- every message's RNG seed
is derived *before* dispatch from the spec's root seed
(:func:`derive_message_seeds`, one pass over ``megasim.message.{index}``
/ ``megasim.loss.{index}``), so results are identical for any worker
count and batch size, in submission order, exactly like the event-kernel
engine.

There is one dispatch path.  The environment -- topology, partial views,
fault tables -- is made worker-resident by a
:class:`~repro.megasim.arena.MegasimArena` (inherited copy-on-write by
forked workers; otherwise big arrays in one shared-memory segment
attached zero-copy in the pool initializer, everything else shipped
once per worker beside them), and tasks are
``(message indices, origins)`` batch descriptors of a few bytes each,
run against that environment with one
:class:`~repro.megasim.rounds.SlotScratch` reused across the batch.
With ``workers=1`` the parent's own objects are the environment and no
segment is created.  Pooled, a finished message's four n-sized columns
come back through the arena's outcome region -- written in place by the
worker, bound as views by the parent -- and only its counters and link
arrays through the pool's result pipe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.experiments.parallel import resolve_workers, run_tasks
from repro.failures.gray import GrayFailurePlan
from repro.failures.injection import FailurePlan
from repro.gossip.config import recommended_rounds
from repro.megasim.adapter import (
    CompiledFaults,
    PlaneTopology,
    UniformTopology,
    VectorTopology,
    build_views,
    compile_faults,
    summary_from_outcomes,
)
from repro.megasim.arena import (
    MegasimArena,
    WorkerEnv,
    clear_worker_env,
    current_env,
    install_worker_env,
)
from repro.megasim.links import StructureMetrics, structure_metrics
from repro.megasim.rounds import MessageOutcome, disseminate
from repro.megasim.strategies import compile_strategy
from repro.metrics.analysis import RunSummary
from repro.runtime.node import StrategyFactory
from repro.scheduler.interfaces import DEFAULT_RETRY_PERIOD_MS
from repro.sim.rng import RandomStreams

TOPOLOGY_PLANE = "plane"
TOPOLOGY_UNIFORM = "uniform"


@dataclass(frozen=True)
class MegasimSpec:
    """One vectorized run, fully determined by its fields.

    ``rounds=None`` sizes the cap via
    :func:`repro.gossip.config.recommended_rounds`, matching what
    ``GossipConfig.for_population`` gives the event kernel.
    ``origins=None`` draws one origin per message from the derived
    ``megasim.origins`` stream -- among *alive* nodes when ``failure``
    crashes some (the event engine also multicasts from alive senders
    only); the draws are identical to the unconstrained ones whenever no
    node is crashed.  ``failure``/``gray`` carry the supported fault
    subset -- see :func:`repro.megasim.adapter.compile_faults`.
    """

    strategy_factory: StrategyFactory
    nodes: int
    fanout: int = 11
    rounds: Optional[int] = None
    messages: int = 1
    seed: int = 0
    round_ms: float = 50.0
    retry_period_ms: float = DEFAULT_RETRY_PERIOD_MS
    topology: str = TOPOLOGY_PLANE
    view_degree: Optional[int] = None
    origins: Optional[Tuple[int, ...]] = None
    payload_bytes: int = 256
    track_links: bool = False
    failure: Optional[FailurePlan] = None
    gray: Optional[GrayFailurePlan] = None

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        if self.messages < 1:
            raise ValueError(f"messages must be >= 1, got {self.messages}")
        if self.fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {self.fanout}")
        if self.rounds is not None and self.rounds < 1:
            raise ValueError(f"spec.rounds must be >= 1, got {self.rounds}")
        if self.view_degree is not None and not (
            1 <= self.view_degree <= self.nodes - 1
        ):
            raise ValueError(
                f"spec.view_degree must be in [1, spec.nodes - 1] (a view "
                f"holds other nodes; spec.nodes is {self.nodes}), got "
                f"{self.view_degree}"
            )
        for name in ("round_ms", "retry_period_ms"):
            if not getattr(self, name) > 0:
                raise ValueError(
                    f"spec.{name} must be positive, got {getattr(self, name)}"
                )
        if self.topology not in (TOPOLOGY_PLANE, TOPOLOGY_UNIFORM):
            raise ValueError(
                f"topology must be {TOPOLOGY_PLANE!r} or {TOPOLOGY_UNIFORM!r},"
                f" got {self.topology!r}"
            )
        if self.origins is not None:
            if len(self.origins) != self.messages:
                raise ValueError(
                    f"{len(self.origins)} origins for {self.messages} messages"
                )
            for origin in self.origins:
                if not 0 <= origin < self.nodes:
                    raise ValueError(f"origin {origin} out of range")

    @property
    def effective_rounds(self) -> int:
        if self.rounds is not None:
            return self.rounds
        return recommended_rounds(self.nodes, self.fanout)


@dataclass
class MegasimResult:
    """Finished run plus the context needed to interpret it."""

    spec: MegasimSpec
    outcomes: List[MessageOutcome]
    round_ms: float
    #: Crash-stopped node ids (ascending); empty without a failure plan.
    failed: List[int] = field(default_factory=list)
    summary: RunSummary = field(init=False)
    #: Emergent-structure metrics from the vectorized link arrays;
    #: ``None`` unless the run tracked links for every message.
    structure: Optional[StructureMetrics] = field(init=False, default=None)

    def __post_init__(self) -> None:
        # One link reduction feeds both the structure metrics and the
        # summary (no structure: links were not tracked, and the summary
        # reports NaN).
        self.structure = structure_metrics(self.outcomes, self.spec.nodes)
        self.summary = summary_from_outcomes(
            self.outcomes,
            self.spec.nodes,
            self.round_ms,
            payload_bytes=self.spec.payload_bytes,
            expected_receivers=self.spec.nodes - len(self.failed),
            top_link_share=(
                self.structure.top_link_share
                if self.structure is not None
                else float("nan")
            ),
        )

    @property
    def retries(self) -> int:
        """IWANT retries across all messages (the event kernel's
        ``retries_sent`` tally)."""
        return sum(outcome.retries for outcome in self.outcomes)


def build_topology(spec: MegasimSpec) -> VectorTopology:
    """The spec's synthetic environment (positions seeded by the spec)."""
    if spec.topology == TOPOLOGY_UNIFORM:
        return UniformTopology(spec.nodes, latency_ms=spec.round_ms)
    return PlaneTopology(spec.nodes, seed=spec.seed, side=2.0 * spec.round_ms)


def message_origins(
    spec: MegasimSpec, faults: Optional[CompiledFaults] = None
) -> Tuple[int, ...]:
    """Per-message origin nodes, explicit or derived from the seed.

    With crash faults in play, derived origins are drawn among the alive
    nodes (the event engine's traffic generator also sends from alive
    nodes only).  Without crashes the alive population is all nodes and
    the draws are bit-identical to the unconstrained ones.
    """
    crashed = faults.crashed if faults is not None else None
    if spec.origins is not None:
        if crashed is not None and crashed[list(spec.origins)].any():
            raise ValueError(
                f"spec.origins {spec.origins} names a node that "
                "spec.failure crash-stops; the origin must be alive"
            )
        return spec.origins
    rng = np.random.default_rng(
        RandomStreams(spec.seed).derive_seed("megasim.origins")
    )
    if crashed is not None:
        alive = np.flatnonzero(~crashed)
        if alive.size == 0:
            raise ValueError("failure plan crashed every node")
        return tuple(
            int(o)
            for o in alive[rng.integers(0, alive.size, size=spec.messages)]
        )
    return tuple(
        int(o) for o in rng.integers(0, spec.nodes, size=spec.messages)
    )


def derive_message_seeds(
    spec: MegasimSpec, count: Optional[int] = None
) -> Tuple[Tuple[int, int], ...]:
    """Every message's ``(dissemination, loss)`` seed pair, in one pass.

    One :class:`RandomStreams` instance derives all
    ``megasim.message.{index}`` / ``megasim.loss.{index}`` seeds before
    dispatch -- the single derivation site for both streams (per-call
    reconstruction used to re-hash the root seed for every message).
    Loss seeds are separate streams so that arming the loss machinery at
    probability zero -- or not at all -- leaves the dissemination
    stream, and therefore every outcome array, byte-identical.
    """
    streams = RandomStreams(spec.seed)
    total = spec.messages if count is None else count
    return tuple(
        (
            streams.derive_seed(f"megasim.message.{index}"),
            streams.derive_seed(f"megasim.loss.{index}"),
        )
        for index in range(total)
    )


@dataclass(frozen=True)
class _BatchTask:
    """``B`` messages against the worker-resident environment.

    Pure descriptor: a few integers, independent of population size.
    The environment comes from :func:`~repro.megasim.arena.current_env`
    (installed by the pool initializer), and one scratch instance is
    reused across the whole batch.  Where the environment has an outcome
    region, each message's n-sized columns stay behind in it.
    """

    indices: Tuple[int, ...]
    origins: Tuple[int, ...]

    def __call__(self) -> List[MessageOutcome]:
        env = current_env()
        spec = env.spec
        scratch = env.scratch()
        needs_loss = env.faults is not None and env.faults.needs_rng
        outcomes: List[MessageOutcome] = []
        for index, origin in zip(self.indices, self.origins):
            seed, loss = env.seeds[index]
            loss_rng = np.random.default_rng(loss) if needs_loss else None
            outcome = disseminate(
                env.topology,
                env.strategy,
                origin,
                spec.fanout,
                spec.effective_rounds,
                np.random.default_rng(seed),
                views=env.views,
                track_links=spec.track_links,
                faults=env.faults,
                loss_rng=loss_rng,
                scratch=scratch,
            )
            if env.outcomes is not None:
                outcome = env.outcomes.store(index, outcome)
            outcomes.append(outcome)
        return outcomes


#: Tasks each worker should see before the batches grow past one message.
_TASKS_PER_WORKER = 16


def default_batch_size(messages: int, workers: int) -> int:
    """Messages per dispatch: one, until every worker has
    ``_TASKS_PER_WORKER`` tasks to draw from.

    A worker that finishes a task takes the next pending one, so small
    tasks keep every worker busy to the end of the run instead of
    idling behind a fixed split; a task's round trip (a few integers
    out, counters back) is small against one message's epidemic, and
    runs with many messages still amortize it over larger batches.
    """
    return max(1, messages // (workers * _TASKS_PER_WORKER))


def _batch_tasks(
    origins: Sequence[int], batch_size: int
) -> List[_BatchTask]:
    """Consecutive-index batches; flattening in task order restores
    exact submission order, so results are batch-size invariant."""
    return [
        _BatchTask(
            indices=tuple(range(start, min(start + batch_size, len(origins)))),
            origins=tuple(origins[start: start + batch_size]),
        )
        for start in range(0, len(origins), batch_size)
    ]


def run_megasim(
    spec: MegasimSpec,
    workers: Optional[int] = 1,
    topology: Optional[VectorTopology] = None,
    views: Optional[NDArray[np.int32]] = None,
    batch_size: Optional[int] = None,
) -> MegasimResult:
    """Run every message of ``spec``; results are worker-count invariant.

    Pass ``topology`` to run against an explicit environment (the
    differential harness hands in a :class:`DenseTopology` wrapping the
    event kernel's model) instead of the spec's synthetic one, and
    ``views`` to reuse pre-built partial views (they must match what
    ``spec.view_degree`` would build -- benchmark reruns over one
    environment).  ``batch_size`` overrides messages per dispatch
    (default :func:`default_batch_size`); outcomes are byte-identical
    for every legal value, which is what the invariance tests use it to
    show.

    Serial: the parent's own objects are installed as the worker
    environment (no segment, no attach) and torn down in ``finally``.
    Pooled: the arena context manager guarantees both segment names are
    unlinked on success, on a worker raising mid-batch, and on a worker
    dying; the outcome columns of the result are views of the arena's
    outcome region, whose mapping lives as long as any of them does.
    """
    if topology is None:
        topology = build_topology(spec)
    if topology.size != spec.nodes:
        raise ValueError(
            f"topology has {topology.size} nodes, spec wants {spec.nodes}"
        )
    if batch_size is not None and batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    strategy = compile_strategy(
        spec.strategy_factory,
        topology,
        retry_period_ms=spec.retry_period_ms,
    )
    if views is not None:
        expected = (spec.nodes, spec.view_degree)
        if spec.view_degree is None or views.shape != expected:
            raise ValueError(
                f"views shaped {views.shape} do not match "
                f"spec.view_degree={spec.view_degree}"
            )
    elif spec.view_degree is not None:
        views = build_views(
            spec.nodes,
            spec.view_degree,
            np.random.default_rng(
                RandomStreams(spec.seed).derive_seed("megasim.views")
            ),
        )
    faults = compile_faults(
        spec.nodes, spec.seed, failure=spec.failure, gray=spec.gray
    )
    origins = message_origins(spec, faults)
    seeds = derive_message_seeds(spec)
    workers = resolve_workers(workers)
    if batch_size is None:
        batch_size = default_batch_size(len(origins), workers)
    batches = _batch_tasks(origins, batch_size)
    results: List[List[MessageOutcome]]
    if workers == 1:
        env = WorkerEnv(
            spec=spec,
            topology=topology,
            strategy=strategy,
            views=views,
            faults=faults,
            seeds=seeds,
        )
        try:
            install_worker_env(env)
            results = run_tasks(batches, workers=1)
        finally:
            clear_worker_env()
    else:
        with MegasimArena(spec, topology, views, faults, seeds) as arena:
            results = run_tasks(
                batches,
                workers=workers,
                initializer=install_worker_env,
                initargs=(arena.layout,),
            )
            if arena.outcomes is not None:
                # Batches come back in submission order: message order.
                arena.outcomes.bind(
                    [outcome for batch in results for outcome in batch]
                )
    return MegasimResult(
        spec=spec,
        outcomes=[outcome for batch in results for outcome in batch],
        round_ms=topology.round_ms,
        failed=faults.failed_nodes() if faults is not None else [],
    )
