"""One function per table/figure of the paper's evaluation.

Each function returns a list of row dicts (the series the paper plots)
and can run at two scales:

- ``QUICK`` -- small population/message count for a fast look;
  shapes (who wins, direction of trends) hold, absolute numbers wobble.
- ``FULL`` -- the paper's scale: 3037-router Inet model, 100 clients,
  400 messages of 256 B.  Used to produce EXPERIMENTS.md.

The mapping to the paper (see DESIGN.md section 4):

- :func:`section51_table` -- the network-model statistics table.
- :func:`figure4` -- emergent structure: top-5% connection traffic share.
- :func:`figure5a` -- latency/bandwidth trade-off sweeps.
- :func:`figure5b` -- reliability under node failures.
- :func:`figure5c` -- the hybrid ("combined") strategy.
- :func:`figure6` -- structure degradation under noise (a: payload,
  b: latency, c: top-5% share -- one sweep feeds all three panels).
- :func:`section54_statistics` -- per-run traffic accounting.

Figs. 4-6 are *data*: each figure function, given the model, lists its
:class:`SweepPoint` s and names the function turning one run's result
into its table row(s); the :func:`sweep` decorator owns the rest --
seeds fixed in enumeration order before dispatch, the one fan-out over
:func:`repro.experiments.parallel.run_experiments`, and replication
(``replications > 1`` reports every numeric column as mean plus a
``<column>_hw`` 95% half-width).  Results are bit-identical for any
``workers``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.parallel import ProgressFn, run_experiments
from repro.experiments.replication import replication_specs
from repro.experiments.runner import (
    ExperimentResult,
    ExperimentSpec,
    NodeClassesFn,
    run_experiment,
)
from repro.experiments.scenarios import (
    DEFAULT_PARAMS,
    ScenarioParams,
    best_low_classes,
    flat_factory,
    hybrid_factory,
    noisy_factory,
    radius_calibration,
    radius_factory,
    ranked_calibration,
    ranked_factory,
    ttl_factory,
)
from repro.experiments.workload import TrafficConfig
from repro.failures.gray import GrayFailurePlan
from repro.failures.injection import FailurePlan
from repro.gossip.config import GossipConfig
from repro.metrics.confidence import mean_confidence_interval
from repro.runtime.cluster import ClusterConfig
from repro.runtime.node import StrategyFactory
from repro.topology.cache import cached_model
from repro.topology.inet import InetParameters
from repro.topology.routing import ClientNetworkModel
from repro.topology.stats import compute_statistics


@dataclass(frozen=True)
class Scale:
    """Experiment sizing profile."""

    name: str
    clients: int
    routers: int
    messages: int
    warmup_ms: float
    seed: int = 1

    def traffic(self) -> TrafficConfig:
        return TrafficConfig(messages=self.messages)

    def spec(
        self,
        factory: StrategyFactory,
        seed: int,
        cluster: Optional[ClusterConfig] = None,
        failure: Optional[FailurePlan] = None,
        gray: Optional[GrayFailurePlan] = None,
        node_classes: Optional[NodeClassesFn] = None,
    ) -> ExperimentSpec:
        """One run at this scale: the population's gossip configuration
        (unless ``cluster`` overrides it), the scale's traffic and
        warm-up, and an explicit run ``seed``."""
        return ExperimentSpec(
            strategy_factory=factory,
            cluster=cluster
            or ClusterConfig(gossip=GossipConfig.for_population(self.clients)),
            traffic=self.traffic(),
            warmup_ms=self.warmup_ms,
            seed=seed,
            failure=failure,
            gray=gray,
            node_classes=node_classes,
        )


QUICK = Scale("quick", clients=40, routers=400, messages=60, warmup_ms=6_000.0)
FULL = Scale("full", clients=100, routers=3037, messages=400, warmup_ms=10_000.0)


def build_model(scale: Scale) -> ClientNetworkModel:
    """The Inet-derived client network model for a scale.

    Memoized through the shared :mod:`repro.topology.cache`, so every
    figure, replicated study and CLI invocation in a process shares one
    build per ``(parameters, seed)``.
    """
    return cached_model(
        InetParameters(router_count=scale.routers, client_count=scale.clients),
        seed=scale.seed,
    )


# -- the sweep engine under Figs. 4-6 -----------------------------------------

Row = Dict[str, Any]


@dataclass(frozen=True)
class SweepPoint:
    """One simulation of a figure sweep: its row labels and what varies."""

    labels: Row
    factory: StrategyFactory
    failure: Optional[FailurePlan] = None
    node_classes: Optional[NodeClassesFn] = None


#: ``(point labels, one run's result) -> that run's table row(s)``.
RowsFn = Callable[[Row, ExperimentResult], List[Row]]


class SweepPointError(ValueError):
    """A sweep point the model cannot run, refused before any run starts."""


def sweep(
    build: Callable[..., Tuple[List[SweepPoint], RowsFn]]
) -> Callable[..., List[Row]]:
    """Turn ``build(model, params, **axes) -> (points, rows_of)`` into the
    figure function ``figure(scale, params, workers, replications,
    progress, **axes)`` returning the table.

    Every point's crash plan is checked against the model before the
    pool starts: one that silences the whole population raises
    :class:`SweepPointError` naming the point.  Point ``i`` runs under
    seed ``scale.seed + 1000 + i``; with
    ``replications > 1`` it runs under that many seeds derived from it
    (section 5.4 discipline) and its rows are aggregated.  All runs --
    points x replications -- are fanned over ``workers`` in one batch.
    """

    @functools.wraps(build)
    def figure(
        scale: Scale = QUICK,
        params: ScenarioParams = DEFAULT_PARAMS,
        workers: Optional[int] = 1,
        replications: int = 1,
        progress: Optional[ProgressFn] = None,
        **axes: Any,
    ) -> List[Row]:
        model = build_model(scale)
        points, rows_of = build(model, params, **axes)
        batches = []
        for offset, point in enumerate(points):
            if point.failure is not None:
                try:
                    point.failure.victim_count(model.size)
                except ValueError as error:
                    raise SweepPointError(
                        f"{build.__name__} point {point.labels}: {error}"
                    ) from None
            spec = scale.spec(
                point.factory,
                seed=scale.seed + 1000 + offset,
                failure=point.failure,
                node_classes=point.node_classes,
            )
            batches.append(
                replication_specs(spec, replications) if replications > 1 else [spec]
            )
        results = iter(
            run_experiments(
                model,
                [spec for batch in batches for spec in batch],
                workers=workers,
                progress=progress,
            )
        )
        table: List[Row] = []
        for point, batch in zip(points, batches):
            runs = [rows_of(point.labels, next(results)) for _ in batch]
            table.extend(_aggregate(point.labels, runs))
        return table

    return figure


def _aggregate(labels: Row, runs: List[List[Row]]) -> List[Row]:
    """One point's rows over its replications: each numeric column that
    is not a label becomes its mean plus a ``<column>_hw`` 95%
    half-width.  A single run is reported as it is."""
    if len(runs) == 1:
        return runs[0]
    table = []
    for replicas in zip(*runs):
        row: Row = {}
        for column, value in replicas[0].items():
            if column in labels or not isinstance(value, (int, float)):
                row[column] = value
            else:
                row[column], row[f"{column}_hw"] = mean_confidence_interval(
                    [replica[column] for replica in replicas]
                )
        table.append(row)
    return table


# -- section 5.1: the network model table -----------------------------------------


def section51_table(scale: Scale = QUICK) -> List[Row]:
    """Topology statistics vs the values the paper reports."""
    stats = compute_statistics(build_model(scale))
    paper = {
        "mean hop distance": 5.54,
        "pairs within 5-6 hops (%)": 74.28,
        "mean end-to-end latency (ms)": 49.83,
        "pairs within 39-60 ms (%)": 50.0,
    }
    measured = {
        "mean hop distance": stats.mean_hop_distance,
        "pairs within 5-6 hops (%)": stats.share_hops_5_to_6 * 100.0,
        "mean end-to-end latency (ms)": stats.mean_latency_ms,
        "pairs within 39-60 ms (%)": stats.share_latency_39_to_60 * 100.0,
    }
    return [
        {"statistic": label, "paper": paper[label], "measured": measured[label]}
        for label in paper
    ]


# -- figure 4: emergent structure ----------------------------------------------


@sweep
def figure4(model: ClientNetworkModel, params: ScenarioParams):
    """Traffic concentration on the top-5% connections.

    The paper plots the structures geographically and reports the top-5%
    share in the caption: Flat/eager 7%, Radius 37%, Ranked 30%.  Radius
    here uses the pseudo-geographic (distance) oracle, as in Fig. 4.
    """
    distance_params = replace(
        params, radius_ms=_distance_radius_units(model, params)
    )
    points = [
        SweepPoint({"series": "flat (eager)"}, flat_factory(1.0)),
        SweepPoint(
            {"series": "radius"},
            radius_factory(distance_params, metric="distance"),
        ),
        SweepPoint({"series": "ranked"}, ranked_factory(params)),
    ]
    return points, _structure_rows


def _structure_rows(labels: Row, result: ExperimentResult) -> List[Row]:
    return [
        {
            **labels,
            "top5_share_pct": result.summary.top_link_share * 100.0,
            "payload_per_msg": result.summary.payload_per_delivery,
            "latency_ms": result.summary.mean_latency_ms,
        }
    ]


def _distance_radius_units(
    model: ClientNetworkModel, params: ScenarioParams
) -> float:
    """Translate the scenario's eager-share intent into plane units.

    Picks the distance radius whose in-radius pair share matches the
    latency radius' share, so Fig. 4's Radius run produces comparable
    traffic volume to the performance runs.
    """
    target = radius_calibration(model, params.radius_ms)
    n = model.size
    distances = sorted(
        model.distance(i, j) for i in range(n) for j in range(i + 1, n)
    )
    if not distances:
        return 1.0
    index = min(len(distances) - 1, max(0, int(target * len(distances))))
    return max(1.0, distances[index])


# -- figures 5(a), 5(c): latency vs bandwidth, overall and per node class ---------


@sweep
def figure5a(
    model: ClientNetworkModel,
    params: ScenarioParams,
    flat_probabilities: Optional[List[float]] = None,
    ttl_rounds: Optional[List[int]] = None,
):
    """The latency/bandwidth trade-off of every strategy."""
    points = [
        SweepPoint({"series": "flat", "param": f"p={p}"}, flat_factory(p))
        for p in flat_probabilities or [0.0, 0.1, 0.25, 0.5, 0.75, 1.0]
    ]
    points += [
        SweepPoint({"series": "TTL", "param": f"u={u}"}, ttl_factory(u))
        for u in ttl_rounds or [1, 2, 3, 4]
    ]
    points += [
        SweepPoint(
            {"series": "radius", "param": f"rho={params.radius_ms}ms"},
            radius_factory(params),
        ),
        SweepPoint(
            {"series": "ranked (all)", "param": ""},
            ranked_factory(params),
            node_classes=best_low_classes(params.ranked_fraction),
        ),
    ]
    return points, _tradeoff_rows("low")


@sweep
def figure5c(
    model: ClientNetworkModel,
    params: ScenarioParams,
    ttl_rounds: Optional[List[int]] = None,
):
    """TTL sweep vs the combined strategy, split by node class."""
    classes = best_low_classes(params.ranked_fraction)
    points = [
        SweepPoint(
            {"series": "TTL", "param": f"u={u}"}, ttl_factory(u),
            node_classes=classes,
        )
        for u in ttl_rounds or [1, 2, 3, 4]
    ]
    points.append(
        SweepPoint(
            {"series": "combined (all)", "param": ""}, hybrid_factory(params),
            node_classes=classes,
        )
    )
    return points, _tradeoff_rows("low", "best")


def _tradeoff_rows(*classes: str) -> RowsFn:
    """Payload/latency/delivery rows; an "x (all)" series is followed by
    an "x (<class>)" row for each of the node ``classes``."""

    def rows_of(labels: Row, result: ExperimentResult) -> List[Row]:
        summary = result.summary
        delivery_pct = summary.delivery_ratio * 100.0
        rows = [
            {
                **labels,
                "payload_per_msg": summary.payload_per_delivery,
                "latency_ms": summary.mean_latency_ms,
                "delivery_pct": delivery_pct,
            }
        ]
        series = labels["series"]
        if series.endswith("(all)"):
            for node_class in classes:
                rows.append(
                    {
                        "series": series.replace("(all)", f"({node_class})"),
                        "param": "",
                        "payload_per_msg": result.class_rates[node_class],
                        "latency_ms": result.class_latencies[node_class][0],
                        "delivery_pct": delivery_pct,
                    }
                )
        return rows

    return rows_of


# -- figure 5(b): reliability under failures --------------------------------------


@sweep
def figure5b(
    model: ClientNetworkModel,
    params: ScenarioParams,
    dead_fractions: Optional[List[float]] = None,
):
    """Mean deliveries vs share of dead nodes.

    Series: eager push with random failures, Ranked with random
    failures, and Ranked with the *best* nodes failed (the adversarial
    case showing structure does not hurt resilience).
    """
    closeness_order = sorted(range(model.size), key=model.closeness)
    series = [
        ("flat/random", flat_factory(1.0), "random"),
        ("ranked/random", ranked_factory(params), "random"),
        ("ranked/ranked", ranked_factory(params), "best"),
    ]
    points = [
        SweepPoint(
            {"series": label, "dead_pct": fraction * 100.0},
            factory,
            failure=FailurePlan(
                fraction=fraction,
                target=target,
                ranked_nodes=closeness_order if target == "best" else None,
            )
            if fraction > 0
            else None,
        )
        for label, factory, target in series
        for fraction in dead_fractions or [0.0, 0.2, 0.4, 0.6, 0.8]
    ]
    return points, _reliability_rows


def _reliability_rows(labels: Row, result: ExperimentResult) -> List[Row]:
    return [{**labels, "deliveries_pct": result.summary.delivery_ratio * 100.0}]


# -- figure 6: degradation of structure under noise ----------------------------------


@sweep
def figure6(
    model: ClientNetworkModel,
    params: ScenarioParams,
    noise_levels: Optional[List[float]] = None,
):
    """Noise sweep feeding all three panels of Fig. 6.

    Each row carries payload/msg overall and for regular ("low") nodes
    (panel a), mean latency (panel b) and the top-5% connection share
    (panel c).
    """
    classes = best_low_classes(params.ranked_fraction)
    bases = {
        "radius": (
            radius_factory(params),
            radius_calibration(model, params.radius_ms),
        ),
        "ranked": (
            ranked_factory(params),
            ranked_calibration(model, params.ranked_fraction),
        ),
    }
    points = [
        SweepPoint(
            {"series": label, "noise_pct": noise * 100.0},
            noisy_factory(base, noise, calibration),
            node_classes=classes,
        )
        for label, (base, calibration) in bases.items()
        for noise in noise_levels or [0.0, 0.25, 0.5, 0.75, 1.0]
    ]
    return points, _noise_rows


def _noise_rows(labels: Row, result: ExperimentResult) -> List[Row]:
    return [
        {
            **labels,
            "payload_per_msg": result.summary.payload_per_delivery,
            "payload_low": result.class_rates["low"],
            "latency_ms": result.summary.mean_latency_ms,
            "top5_share_pct": result.summary.top_link_share * 100.0,
        }
    ]


# -- section 5.4: run statistics ---------------------------------------------------


def section54_statistics(scale: Scale = QUICK) -> List[Row]:
    """Traffic accounting of one eager run (deliveries, packets, links)."""
    result = run_experiment(
        build_model(scale), scale.spec(flat_factory(1.0), seed=scale.seed + 1000)
    )
    recorder = result.recorder
    connections_used = len(recorder.link_payload_counts)
    return [
        {"statistic": "messages multicast", "value": recorder.message_count},
        {"statistic": "messages delivered", "value": recorder.delivery_count},
        {
            "statistic": "payload packets transmitted",
            "value": recorder.payload_transmissions,
        },
        {"statistic": "distinct connections used", "value": connections_used},
        {
            "statistic": "total bytes sent",
            "value": sum(recorder.sent_bytes.values()),
        },
        {
            "statistic": "mean gossip rounds to delivery",
            "value": round(result.mean_receipt_round, 2),
        },
    ]
