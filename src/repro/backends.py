"""The two simulation kernels, and the one spec translation between them.

The event kernel (:mod:`repro.sim` driving
:func:`repro.experiments.runner.run_experiment` -- per-packet fidelity,
~10^2-10^3 nodes) runs an :class:`~repro.experiments.runner.ExperimentSpec`
as it is.  The vectorized slot kernel (:mod:`repro.megasim` --
slot-synchronous, 10^5-10^6 nodes) runs a
:class:`~repro.megasim.runner.MegasimSpec`, and :func:`megasim_spec` is
the one place an experiment spec becomes one: the same frozen strategy
factory, the same ``GossipConfig`` fanout and round cap, the same
traffic, seed, scheduler and fault plans.

``repro run --backend vector`` makes the tier choice once: up to
:data:`DENSE_MODEL_LIMIT` clients the slot kernel runs over the routed
Inet model (:class:`~repro.megasim.adapter.DenseTopology`), above it
over the spec's synthetic plane, and both print the same row.  numpy is
imported lazily, so ``--backend event`` never requires the
``repro[vector]`` extra.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.experiments.runner import ExperimentSpec

if TYPE_CHECKING:  # pragma: no cover - typing only (keeps numpy lazy)
    from repro.megasim.runner import MegasimSpec

#: ``repro run --backend`` choices, default first.
BACKEND_NAMES = ("event", "vector")

#: Largest population for which a dense O(n^2) latency model is built.
#: Above this, ``repro run --backend vector`` runs the megasim synthetic
#: plane topology instead.
DENSE_MODEL_LIMIT = 4096


def megasim_spec(
    spec: ExperimentSpec,
    nodes: int,
    view_degree: Optional[int] = None,
    track_links: bool = False,
) -> "MegasimSpec":
    """``spec`` over a ``nodes``-client population, as a slot-kernel spec.

    Crash-stop failure plans and the lossy-link subset of gray failures
    carry over (:func:`repro.megasim.adapter.compile_faults`).  Node
    classes, fabric-wide loss and jitter, IHAVE batching and the
    remaining gray impairments (slow, flappy, extra-latency,
    duplicating) have no slot-synchronous counterpart: each raises a
    ``ValueError`` naming the field rather than being silently dropped.
    ``view_degree`` and ``track_links`` are slot-kernel knobs with no
    event-kernel field.
    """
    cluster = spec.cluster
    for name, value in (
        ("node_classes", spec.node_classes),
        ("cluster.fabric.loss_probability", cluster.fabric.loss_probability),
        ("cluster.fabric.jitter_ms", cluster.fabric.jitter_ms),
        (
            "cluster.scheduler.ihave_batch_window_ms",
            cluster.scheduler.ihave_batch_window_ms,
        ),
    ):
        if value:
            raise ValueError(
                f"the vector backend does not support spec.{name}; "
                "use --backend event"
            )
    if spec.gray is not None:
        from repro.megasim.adapter import check_gray_supported

        check_gray_supported(spec.gray)
    from repro.megasim.runner import MegasimSpec

    gossip = cluster.gossip
    return MegasimSpec(
        strategy_factory=spec.strategy_factory,
        nodes=nodes,
        fanout=gossip.fanout,
        rounds=gossip.rounds,
        messages=spec.traffic.messages,
        seed=spec.seed,
        retry_period_ms=cluster.scheduler.retry_period_ms,
        payload_bytes=gossip.payload_bytes,
        view_degree=view_degree,
        track_links=track_links,
        failure=spec.failure,
        gray=spec.gray,
    )
