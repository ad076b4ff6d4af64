"""Single-experiment orchestration.

Reproduces the measurement discipline of the paper: nodes join the
overlay and warm up (membership shuffles, monitor probes, ranking
convergence) with recording *disabled*; failures, if any, are injected
"immediately before starting to log message deliveries"; then traffic
runs, the network drains, and the run is summarized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.failures.gray import GrayFailureInjector, GrayFailurePlan
from repro.failures.injection import FailureInjector, FailurePlan
from repro.metrics.analysis import (
    RunSummary,
    class_latency,
    class_payload_rates,
    summarize,
)
from repro.metrics.recorder import MetricsRecorder
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.runtime.node import StrategyFactory
from repro.experiments.workload import TrafficConfig, TrafficGenerator
from repro.topology.cache import ModelLike, resolve_model
from repro.topology.routing import ClientNetworkModel

#: Maps a network model to named node classes ("best"/"low") for
#: per-class reporting; see :func:`repro.experiments.scenarios.best_low_classes`.
NodeClassesFn = Callable[[ClientNetworkModel], Dict[str, List[int]]]


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to run one experiment on a given model."""

    strategy_factory: StrategyFactory
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    warmup_ms: float = 10_000.0
    drain_ms: float = 5_000.0
    seed: int = 0
    failure: Optional[FailurePlan] = None
    #: Gray failures (slow nodes, lossy links, flappy nodes), applied at
    #: the same instant as crash failures: after warmup, before logging.
    gray: Optional[GrayFailurePlan] = None
    node_classes: Optional[NodeClassesFn] = None


@dataclass
class ExperimentResult:
    """Summary plus the raw recorder for deeper analysis.

    ``mean_receipt_round`` is the group-wide average gossip round at
    which messages were delivered (the paper's "gossiped 4.5 times"
    statistic; NaN when nothing was delivered).
    """

    summary: RunSummary
    recorder: MetricsRecorder
    alive: List[int]
    failed: List[int]
    class_rates: Dict[str, float]
    class_latencies: Dict[str, Tuple[float, float]]
    mean_receipt_round: float = float("nan")
    #: Request-queue counters summed over nodes: ``{"retries": n}``,
    #: the IWANTs sent beyond each entry's first.
    recovery: Dict[str, int] = field(default_factory=dict)

    def row(self) -> Dict[str, float]:
        return self.summary.row()


def run_experiment(
    model: ModelLike, spec: ExperimentSpec
) -> ExperimentResult:
    """Run one experiment and return its measurements.

    ``model`` may be a built :class:`ClientNetworkModel` or a
    :class:`~repro.topology.cache.ModelKey`, resolved through the shared
    topology cache (a cache hit is byte-identical to a cold build).
    """
    model = resolve_model(model)
    recorder = MetricsRecorder()
    recorder.disable()

    cluster = Cluster(
        model, spec.strategy_factory, config=spec.cluster, seed=spec.seed
    )
    cluster.fabric.set_observer(recorder)
    cluster.set_multicast_hook(recorder.on_multicast)
    cluster.set_deliver(
        lambda node, message_id, payload: recorder.on_app_deliver(
            node, message_id, cluster.sim.now
        )
    )

    cluster.start()
    cluster.run_for(spec.warmup_ms)

    failed: List[int] = []
    if spec.failure is not None:
        failed = FailureInjector(cluster).apply(spec.failure)
    if spec.gray is not None:
        GrayFailureInjector(cluster).apply(spec.gray)
    alive = cluster.alive_nodes

    recorder.enable()
    generator = TrafficGenerator(cluster, senders=alive, config=spec.traffic)
    generator.start()
    while not generator.finished:
        cluster.run_for(10.0 * spec.traffic.mean_interval_ms)
    cluster.run_for(spec.drain_ms)
    recorder.disable()
    cluster.stop()

    classes = spec.node_classes(model) if spec.node_classes else {}
    class_rates = class_payload_rates(recorder, classes) if classes else {}
    class_latencies = {
        label: class_latency(recorder, nodes) for label, nodes in classes.items()
    }

    round_histogram: Dict[int, int] = {}
    for node in cluster.nodes:
        for round_, count in node.gossip.receipt_rounds.items():
            round_histogram[round_] = round_histogram.get(round_, 0) + count
    total_receipts = sum(round_histogram.values())
    mean_round = (
        sum(r * c for r, c in round_histogram.items()) / total_receipts
        if total_receipts
        else float("nan")
    )

    retries = sum(node.scheduler.requests.retries_sent for node in cluster.nodes)

    return ExperimentResult(
        summary=summarize(recorder, expected_receivers=len(alive)),
        recorder=recorder,
        alive=alive,
        failed=failed,
        class_rates=class_rates,
        class_latencies=class_latencies,
        mean_receipt_round=mean_round,
        recovery={"retries": retries},
    )
