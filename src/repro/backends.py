"""Pluggable simulation backends behind one protocol.

The repository has two ways to run an experiment: the event kernel
(:mod:`repro.sim` driving :func:`repro.experiments.runner.run_experiment`
-- per-packet fidelity, ~10^2-10^3 nodes) and the vectorized round
kernel (:mod:`repro.megasim` -- slot-synchronous, 10^5-10^6 nodes).
:class:`SimulationBackend` is the seam between them: both consume the
same ``(model, ExperimentSpec)`` pair -- the same frozen strategy
factories, the same ``GossipConfig`` fanout/rounds -- and produce an
:class:`~repro.experiments.runner.ExperimentResult` in the same metric
schema.

``repro.cli run --backend {event,vector}`` routes through
:func:`get_backend` (above :data:`DENSE_MODEL_LIMIT` clients the CLI
calls ``run_megasim`` directly instead -- there is no model to share);
``event`` is the default and its code path is unchanged.  The vector
backend imports numpy lazily, so selecting ``event`` never requires the
``repro[vector]`` extra.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Protocol, runtime_checkable

from repro.experiments.runner import (
    ExperimentResult,
    ExperimentSpec,
    run_experiment,
)
from repro.topology.cache import ModelLike, resolve_model

if TYPE_CHECKING:  # pragma: no cover - typing only (keeps numpy lazy)
    from repro.megasim.runner import MegasimResult

#: Names accepted by :func:`get_backend`, in CLI-choice order.
BACKEND_NAMES = ("event", "vector")

#: Largest population for which a dense O(n^2) latency model is built.
#: Above this, ``repro run --backend vector`` skips the backend seam and
#: runs the megasim synthetic plane topology directly.
DENSE_MODEL_LIMIT = 4096


@runtime_checkable
class SimulationBackend(Protocol):
    """One way of turning ``(model, spec)`` into measurements."""

    @property
    def name(self) -> str: ...

    def run(self, model: ModelLike, spec: ExperimentSpec) -> ExperimentResult: ...


class EventKernelBackend:
    """The discrete-event kernel: full per-packet fidelity."""

    name = "event"

    def run(self, model: ModelLike, spec: ExperimentSpec) -> ExperimentResult:
        return run_experiment(model, spec)


class VectorBackend:
    """The megasim round kernel behind the experiment interface.

    Translates the spec's gossip/traffic/scheduler parameters into a
    :class:`~repro.megasim.runner.MegasimSpec` and runs against a
    :class:`~repro.megasim.adapter.DenseTopology` wrapping the resolved
    model.  Crash-stop failure plans and the lossy-link subset of gray
    failures are compiled into vector form
    (:func:`repro.megasim.adapter.compile_faults`); continuous churn,
    node classes, and the remaining gray impairments (slow, flappy,
    extra-latency, duplicating) have no slot-synchronous counterpart and
    are rejected *by name* rather than silently approximated.
    """

    name = "vector"

    def __init__(self, workers: Optional[int] = 1) -> None:
        self.workers = workers

    def check_spec(self, spec: ExperimentSpec) -> None:
        """Raise ``ValueError`` naming every unsupported spec feature."""
        for feature in ("churn", "node_classes"):
            if getattr(spec, feature) is not None:
                raise ValueError(
                    f"the vector backend does not support spec.{feature}; "
                    "use --backend event"
                )
        if spec.gray is not None:
            from repro.megasim.adapter import check_gray_supported

            check_gray_supported(spec.gray)

    def run(self, model: ModelLike, spec: ExperimentSpec) -> ExperimentResult:
        self.check_spec(spec)
        from repro.megasim.adapter import DenseTopology
        from repro.megasim.runner import MegasimSpec, run_megasim

        resolved = resolve_model(model)
        gossip = spec.cluster.gossip
        result = run_megasim(
            MegasimSpec(
                strategy_factory=spec.strategy_factory,
                nodes=resolved.size,
                fanout=gossip.fanout,
                rounds=gossip.rounds,
                messages=spec.traffic.messages,
                seed=spec.seed,
                retry_period_ms=spec.cluster.scheduler.retry_period_ms,
                payload_bytes=gossip.payload_bytes,
                track_links=True,
                failure=spec.failure,
                gray=spec.gray,
            ),
            workers=self.workers,
            topology=DenseTopology(resolved),
        )
        failed = set(result.failed)
        return ExperimentResult(
            summary=result.summary,
            recorder=result.to_recorder(),
            alive=[n for n in range(resolved.size) if n not in failed],
            failed=result.failed,
            class_rates={},
            class_latencies={},
            mean_receipt_round=_mean_receipt_round(result),
            recovery={"retries": result.retries},
        )


def _mean_receipt_round(result: "MegasimResult") -> float:
    """Delivery-weighted mean gossip round, origins included -- the
    event runner's ``mean_receipt_round`` over megasim outcomes."""
    total = 0
    weighted = 0
    for outcome in result.outcomes:
        for round_, count in outcome.receipt_round_histogram().items():
            total += count
            weighted += round_ * count
    if total == 0:
        return math.nan
    return weighted / total


def get_backend(name: str, workers: Optional[int] = 1) -> SimulationBackend:
    """Resolve a backend by CLI name (``workers`` is the vector backend's
    multi-message fan-out; the event kernel runs one spec in-process)."""
    if name == "event":
        return EventKernelBackend()
    if name == "vector":
        return VectorBackend(workers=workers)
    raise ValueError(
        f"unknown backend {name!r}; expected one of {', '.join(BACKEND_NAMES)}"
    )
