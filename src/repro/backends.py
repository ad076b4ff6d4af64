"""The two simulation kernels, and the one spec translation between them.

The event kernel (:mod:`repro.sim` driving
:func:`repro.experiments.runner.run_experiment` -- per-packet fidelity,
~10^2-10^3 nodes) runs an :class:`~repro.experiments.runner.ExperimentSpec`
as it is.  The vectorized slot kernel (:mod:`repro.megasim` --
slot-synchronous, 10^5-10^6 nodes) runs a
:class:`~repro.megasim.runner.MegasimSpec`, and :func:`megasim_spec` is
the one place an experiment spec becomes one: the same frozen strategy
factory, the same ``GossipConfig`` fanout and round cap, the same
traffic, seed, retry period and payload size (both read
``SchedulerConfig``'s), and the same fault plans: crash-stop
silencing and per-link loss are the one fault model both kernels run.

``repro run --backend vector`` makes the tier choice once: up to
:data:`DENSE_MODEL_LIMIT` clients the slot kernel runs over the routed
Inet model (:class:`~repro.megasim.adapter.DenseTopology`), above it
over the spec's synthetic plane, and both print the same row.  numpy is
imported lazily, so ``--backend event`` never requires the
``repro[vector]`` extra.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Iterator, Optional

from repro.experiments.runner import ExperimentSpec
from repro.runtime.cluster import ClusterConfig

if TYPE_CHECKING:  # pragma: no cover - typing only (keeps numpy lazy)
    from repro.megasim.runner import MegasimSpec

#: ``repro run --backend`` choices, default first.
BACKEND_NAMES = ("event", "vector")

#: Largest population for which a dense O(n^2) latency model is built.
#: Above this, ``repro run --backend vector`` runs the megasim synthetic
#: plane topology instead.
DENSE_MODEL_LIMIT = 4096


#: ``ClusterConfig`` settings :func:`megasim_spec` carries over
#: (``gossip`` and ``scheduler`` are read field by field) or
#: approximates: the slot kernel samples from the oracle or its own
#: ``view_degree`` views rather than the shuffled overlay and its
#: bootstrap, and has no uplink serialization.
_TRANSLATED = frozenset({
    "cluster.gossip.fanout",
    "cluster.gossip.rounds",
    "cluster.scheduler.retry_period_ms",
    "cluster.scheduler.payload_bytes",
    "cluster.overlay",
    "cluster.bootstrap_degree",
    "cluster.fabric",
})


def _untranslated(config: Any, default: Any, prefix: str) -> Iterator[str]:
    """Names of the settings in ``config`` that differ from ``default``
    and that :func:`megasim_spec` neither carries over nor approximates."""
    for field in dataclasses.fields(config):
        name = prefix + field.name
        if name in _TRANSLATED:
            continue
        value, base = getattr(config, field.name), getattr(default, field.name)
        if name in ("cluster.gossip", "cluster.scheduler"):
            yield from _untranslated(value, base, name + ".")
        elif value != base:
            yield name


def megasim_spec(
    spec: ExperimentSpec,
    nodes: int,
    view_degree: Optional[int] = None,
    track_links: bool = False,
) -> "MegasimSpec":
    """``spec`` over a ``nodes``-client population, as a slot-kernel spec.

    Both fault plans carry over whole: crash-stop failures and lossy
    links are the one fault model of both kernels
    (:func:`repro.megasim.adapter.compile_faults`).  Three cluster
    settings are approximated rather than modelled: the shuffled
    overlay (``cluster.overlay``) and its ``cluster.bootstrap_degree``
    become oracle sampling or ``view_degree`` views, and the uplink
    bandwidth (``cluster.fabric``) has no slot-level counterpart.
    A ``system`` (the tree or pull comparator), node classes and every
    other ``ClusterConfig`` setting the slot kernel does not read (the
    connection buffer capacity, cache and known-id capacities) raise a
    ``ValueError`` naming the field when set away from its
    ``ClusterConfig()`` default, rather than being silently dropped.
    ``view_degree`` and ``track_links`` are slot-kernel knobs with no
    event-kernel field.
    """
    cluster = spec.cluster
    refused = [name for name in ("system", "node_classes") if getattr(spec, name)]
    refused += _untranslated(cluster, ClusterConfig(), "cluster.")
    if refused:
        raise ValueError(
            f"the vector backend does not support spec.{refused[0]}; "
            "use --backend event"
        )
    assert spec.strategy_factory is not None  # a gossip spec names one
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
        payload_bytes=cluster.scheduler.payload_bytes,
        view_degree=view_degree,
        track_links=track_links,
        failure=spec.failure,
        gray=spec.gray,
    )
