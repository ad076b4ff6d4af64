"""The six named workloads: inputs from a seed, one user-facing call each.

Every workload is a closed-loop batch job: ``setup`` builds the cold
environment (timed as ``setup_s``), ``call`` makes one user-facing call
(``run_experiment`` / ``figure4`` / ``run_megasim``) against it and
waits for the result.  The program under test only ever sees the spec
generated here from ``--seed``.  Entry points are called through their
modules (``runner.run_experiment``, not a ``from`` import) so the traced
repetition's wrappers apply to the harness's own calls too.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.experiments import figures, golden, runner
from repro.experiments.scenarios import flat_factory, radius_factory
from repro.experiments.workload import TrafficConfig
from repro.failures.gray import GrayFailurePlan
from repro.failures.injection import FailurePlan
from repro.gossip.config import GossipConfig
from repro.megasim import runner as mega
from repro.runtime.cluster import ClusterConfig
from repro.sim.rng import RandomStreams
from repro.topology.cache import shared_cache

#: Worker processes of the two ``*_pool`` workloads (``nproc`` on the box
#: the bounds were sized on); the only concurrency in the benchmark.
POOL_WORKERS = 2

#: The paper's Fig. 4 caption: top-5 % link share of eager/radius/ranked.
PAPER_TOP5_PCT = (7.0, 37.0, 30.0)


@dataclass(frozen=True)
class Sizing:
    """Input sizes.  ``BENCH`` is what ``BENCHMARK.json`` measures;
    ``SMOKE`` keeps the self-test under 20 s."""

    clients: int
    routers: int
    event_messages: int
    fig4_messages: int
    warmup_ms: float
    mega_nodes: int
    mega_messages: int
    mega_fault_messages: int
    view_degree: int


#: Paper-scale topology (100 clients / 3037 routers) and 100k-node
#: megasim jobs; message counts are sized so one repetition takes 1-2 s
#: and a 10 s run holds at least five of them.
BENCH = Sizing(
    clients=100, routers=3037, event_messages=100, fig4_messages=60,
    warmup_ms=10_000.0, mega_nodes=100_000, mega_messages=32,
    mega_fault_messages=8, view_degree=192,
)
SMOKE = Sizing(
    clients=30, routers=300, event_messages=20, fig4_messages=20,
    warmup_ms=3_000.0, mega_nodes=2_000, mega_messages=4,
    mega_fault_messages=4, view_degree=32,
)


@dataclass
class Outcome:
    """What one call produced, reduced to what the metrics need."""

    deliveries: int
    #: Expected node-deliveries: messages x alive receivers.
    attempted: int
    packets: int
    sim_latency_ms: float
    sim_digest: str
    #: Raw results for the per-layer counters (ExperimentResult list or
    #: one MegasimResult); ``rows`` only for the figure sweep.
    results: Any = None
    rows: Optional[List[Dict[str, Any]]] = None


@dataclass(frozen=True)
class Workload:
    #: Why each workload exists is recorded in /BENCHMARK.json (`why`).
    name: str
    kernel: str
    #: Minimum delivered share for the output check.
    floor: float
    #: Timed cold builds per run (median reported as ``setup_s``).
    setup_builds: int
    pooled: bool
    make_spec: Callable[[Sizing, int], Any]
    setup: Callable[[Any], Any]
    #: ``call(spec, env, serial)`` is the timed user-facing call
    #: (``serial`` only matters when pooled); ``reduce`` turns what it
    #: returned into an :class:`Outcome` outside the timed region.
    call: Callable[[Any, Any, bool], Any]
    reduce: Callable[[Any], Outcome]


def _sha(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


# -- event kernel -----------------------------------------------------------


def _scale(sizing: Sizing, seed: int, messages: int) -> figures.Scale:
    return figures.Scale(
        "perf", clients=sizing.clients, routers=sizing.routers,
        messages=messages, warmup_ms=sizing.warmup_ms, seed=seed,
    )


def _event_spec(
    sizing: Sizing, seed: int, factory: Any, **faults: Any
) -> Tuple[figures.Scale, runner.ExperimentSpec]:
    scale = _scale(sizing, seed, sizing.event_messages)
    spec = runner.ExperimentSpec(
        strategy_factory=factory,
        cluster=ClusterConfig(gossip=GossipConfig.for_population(scale.clients)),
        traffic=TrafficConfig(messages=scale.messages),
        warmup_ms=scale.warmup_ms,
        seed=seed + 1000,
        **faults,
    )
    return scale, spec


def _eager_spec(sizing: Sizing, seed: int) -> Any:
    return _event_spec(sizing, seed, flat_factory(1.0))


def _radius_faults_spec(sizing: Sizing, seed: int) -> Any:
    return _event_spec(
        sizing, seed, radius_factory(),
        failure=FailurePlan(fraction=0.2),
        gray=GrayFailurePlan(
            lossy_link_fraction=1.0, link_loss_probability=0.05
        ),
    )


def _build_model(spec: Tuple[figures.Scale, Any]) -> Any:
    shared_cache().clear()
    return figures.build_model(spec[0])


def _event_outcome(raw: Tuple[List[Any], Any]) -> Outcome:
    results, rows = raw
    digests = [golden.trace_digest(result) for result in results]
    deliveries = sum(r.recorder.delivery_count for r in results)
    packets = sum(
        r.recorder.sent_packets[kind]
        for r in results
        for kind in ("MSG", "IHAVE", "IWANT")
    )
    return Outcome(
        deliveries=deliveries,
        attempted=sum(
            r.summary.messages * r.summary.expected_receivers for r in results
        ),
        packets=packets,
        # Delivery-weighted over the sweep's series; one series otherwise.
        sim_latency_ms=sum(
            r.summary.mean_latency_ms * r.recorder.delivery_count
            for r in results
        ) / deliveries,
        sim_digest=_sha(json.dumps(digests, sort_keys=True).encode()),
        results=results,
        rows=rows,
    )


def _call_experiment(spec: Any, model: Any, serial: bool) -> Any:
    return [runner.run_experiment(model, spec[1])], None


def _fig4_spec(sizing: Sizing, seed: int) -> Tuple[figures.Scale, None]:
    # figure4 derives its three ExperimentSpecs from the scale itself.
    return _scale(sizing, seed, sizing.fig4_messages), None


def _call_figure4(spec: Tuple[figures.Scale, None], model: Any, serial: bool) -> Any:
    # figure4 returns table rows only; the run results (deliveries,
    # digests) are read by a pass-through on its run_experiments call,
    # installed the same way in traced and untraced repetitions.
    captured: List[Any] = []
    inner = figures.run_experiments

    def capture(*args: Any, **kwargs: Any) -> Any:
        results = inner(*args, **kwargs)
        captured.extend(results)
        return results

    figures.run_experiments = capture
    try:
        rows = figures.figure4(
            spec[0], workers=1 if serial else POOL_WORKERS
        )
    finally:
        figures.run_experiments = inner
    return captured, rows


# -- megasim ----------------------------------------------------------------


def _mega_eager_spec(sizing: Sizing, seed: int) -> mega.MegasimSpec:
    return mega.MegasimSpec(
        flat_factory(1.0), nodes=sizing.mega_nodes, fanout=11,
        messages=sizing.mega_messages, seed=seed,
    )


def _mega_radius_faults_spec(sizing: Sizing, seed: int) -> mega.MegasimSpec:
    return mega.MegasimSpec(
        radius_factory(), nodes=sizing.mega_nodes, fanout=11,
        messages=sizing.mega_fault_messages, seed=seed, track_links=True,
        failure=FailurePlan(fraction=0.1),
        gray=GrayFailurePlan(
            lossy_link_fraction=1.0, link_loss_probability=0.05
        ),
    )


def _mega_pool_spec(sizing: Sizing, seed: int) -> mega.MegasimSpec:
    return mega.MegasimSpec(
        flat_factory(1.0), nodes=sizing.mega_nodes, fanout=11,
        messages=sizing.mega_messages, seed=seed,
        view_degree=sizing.view_degree,
    )


def _build_mega_env(spec: mega.MegasimSpec) -> Any:
    """Everything ``run_megasim`` builds before the first slot.  Topology
    and views are handed to the call prebuilt; faults and strategy are
    recompiled inside it (cheap) and timed here because users pay them."""
    topology = mega.build_topology(spec)
    views = None
    if spec.view_degree is not None:
        views = mega.build_views(
            spec.nodes, spec.view_degree,
            np.random.default_rng(
                RandomStreams(spec.seed).derive_seed("megasim.views")
            ),
        )
    mega.compile_faults(
        spec.nodes, spec.seed, failure=spec.failure, gray=spec.gray
    )
    mega.compile_strategy(
        spec.strategy_factory, topology, retry_period_ms=spec.retry_period_ms
    )
    return topology, views


def _mega_digest(result: Any) -> str:
    digest = hashlib.sha256()
    for outcome in result.outcomes:
        digest.update(
            f"{outcome.origin}|{outcome.msg_sent}|{outcome.ihave_sent}|"
            f"{outcome.iwant_sent}|{outcome.slots_elapsed}|"
            f"{outcome.retries}\n".encode()
        )
        for array in (
            outcome.deliver_slot, outcome.carried_round,
            outcome.payload_sent, outcome.payload_received,
            outcome.link_keys, outcome.link_sends,
        ):
            if array is not None:
                digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _call_megasim(workers: int) -> Callable[[Any, Any, bool], Any]:
    def call(spec: mega.MegasimSpec, env: Any, serial: bool) -> Any:
        topology, views = env
        return mega.run_megasim(
            spec, workers=1 if serial else workers,
            topology=topology, views=views,
        )

    return call


def _mega_outcome(result: Any) -> Outcome:
    summary = result.summary
    return Outcome(
        deliveries=summary.deliveries,
        attempted=summary.messages * summary.expected_receivers,
        packets=sum(
            o.msg_sent + o.ihave_sent + o.iwant_sent for o in result.outcomes
        ),
        sim_latency_ms=summary.mean_latency_ms,
        sim_digest=_mega_digest(result),
        results=result,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="event_eager",
            kernel="event", floor=0.99, setup_builds=5, pooled=False,
            make_spec=_eager_spec, setup=_build_model,
            call=_call_experiment, reduce=_event_outcome,
        ),
        Workload(
            name="event_radius_faults",
            kernel="event", floor=0.98, setup_builds=5, pooled=False,
            make_spec=_radius_faults_spec, setup=_build_model,
            call=_call_experiment, reduce=_event_outcome,
        ),
        Workload(
            name="fig4_sweep_pool",
            kernel="event", floor=0.99, setup_builds=5, pooled=True,
            make_spec=_fig4_spec, setup=_build_model,
            call=_call_figure4, reduce=_event_outcome,
        ),
        Workload(
            name="mega_eager",
            kernel="mega", floor=0.9999, setup_builds=25, pooled=False,
            make_spec=_mega_eager_spec, setup=_build_mega_env,
            call=_call_megasim(1), reduce=_mega_outcome,
        ),
        Workload(
            name="mega_radius_faults",
            kernel="mega", floor=0.99, setup_builds=25, pooled=False,
            make_spec=_mega_radius_faults_spec, setup=_build_mega_env,
            call=_call_megasim(1), reduce=_mega_outcome,
        ),
        Workload(
            name="mega_pool",
            kernel="mega", floor=0.9999, setup_builds=3, pooled=True,
            make_spec=_mega_pool_spec, setup=_build_mega_env,
            call=_call_megasim(POOL_WORKERS), reduce=_mega_outcome,
        ),
    )
}
