"""Transit-stub Internet topology generator (Inet-3.0 analogue).

The paper's testbed uses Inet-3.0 with its default of 3037 network nodes,
link latencies assigned by ModelNet from pseudo-geographical distance,
and client nodes attached to *distinct* stub routers over 1 ms access
links (section 5.1).  The resulting model has, per the paper:

- average hop distance between client nodes of 5.54, with 74.28% of
  client pairs within 5 and 6 hops;
- average end-to-end latency of 49.83 ms, with 50% of client pairs
  between 39 ms and 60 ms.

This generator reproduces those statistics with a transit-stub model:

1. A densely connected **transit core** spread over the plane.  Core
   links prefer geographically close routers (Waxman-style), plus a ring
   for guaranteed connectivity.
2. **Stub routers** hanging off transit routers in heavy-tailed bunches
   (Pareto-distributed domain sizes, echoing Inet's power-law degrees),
   placed near their attachment point.  A fraction of stub routers are
   multihomed to a second transit router.
3. **Clients** attached to distinct stub routers at a fixed 1 ms.

After construction, router-router latencies are rescaled by a single
factor so the mean client-to-client latency equals the target (49.83 ms
by default).  Because routing is hop-count-first (see
:mod:`repro.topology.routing`) and the rescaling is uniform, this
calibration never changes which paths are used -- it is exact in one pass.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.sim.rng import sample
from repro.topology.geometry import Point, clamp, euclidean
from repro.topology.graph import NodeKind, RouterTopology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.topology.routing import ClientNetworkModel


@dataclass(frozen=True)
class InetParameters:
    """Knobs of the transit-stub generator.

    The defaults are calibrated against the statistics the paper reports
    for the full 3037-router model; ``tests/topology/test_paper_properties.py``
    pins them.  For unit tests and benchmarks, shrink ``router_count``
    (the structure scales down gracefully).
    """

    router_count: int = 3037
    client_count: int = 100
    transit_count: int = 64
    transit_extra_degree: int = 24
    stub_pareto_alpha: float = 1.1
    multihoming_probability: float = 0.15
    plane_size: float = 1000.0
    transit_spread: float = 60.0
    stub_spread: float = 45.0
    stub_chain_probability: float = 0.14
    ms_per_unit: float = 0.05
    link_base_ms: float = 5.5
    min_link_latency_ms: float = 0.5
    client_access_latency_ms: float = 1.0
    target_mean_latency_ms: Optional[float] = 49.83

    def __post_init__(self) -> None:
        if self.transit_count < 3:
            raise ValueError("need at least 3 transit routers")
        if self.router_count <= self.transit_count:
            raise ValueError(
                f"router_count={self.router_count} must exceed "
                f"transit_count={self.transit_count}"
            )
        # A mean client-pair latency needs a pair to calibrate against.
        fewest = 1 if self.target_mean_latency_ms is None else 2
        if self.client_count < fewest:
            raise ValueError(
                f"client_count must be >= {fewest}, got {self.client_count}"
            )
        stub_count = self.router_count - self.transit_count
        if self.client_count > stub_count:
            raise ValueError(
                f"client_count={self.client_count} exceeds the {stub_count} "
                f"stub routers (router_count - transit_count) that take one "
                f"client each"
            )
        if stub_count < self.transit_count:
            # Every transit router anchors at least one stub domain;
            # fewer stubs than transits previously spun forever in the
            # stub-size partitioner.
            raise ValueError(
                f"router_count={self.router_count} leaves {stub_count} stub "
                f"routers for {self.transit_count} transit routers; need "
                f"router_count >= 2 * transit_count "
                f"(lower transit_count for small models)"
            )


@dataclass
class InetTopology:
    """A generated topology plus the client attachment bookkeeping.

    ``model``, when present, is the client network model derived from
    the calibration sweep: building it costs nothing beyond the routing
    results calibration needed anyway, so
    :meth:`~repro.topology.routing.ClientNetworkModel.from_inet` can
    skip its own sweep entirely.
    """

    graph: RouterTopology
    parameters: InetParameters
    transit_ids: List[int]
    stub_ids: List[int]
    client_ids: List[int]
    calibration_factor: float
    model: Optional["ClientNetworkModel"] = None


def generate_inet(
    parameters: Optional[InetParameters] = None,
    seed: int = 0,
) -> InetTopology:
    """Generate a calibrated transit-stub topology.

    Deterministic for a given ``(parameters, seed)`` pair.
    """
    params = parameters or InetParameters()
    rng = random.Random(seed)
    graph = RouterTopology()

    transit_ids = _build_transit_core(graph, params, rng)
    stub_ids = _build_stub_routers(graph, params, rng, transit_ids)
    client_ids = _attach_clients(graph, params, rng, stub_ids)

    factor = 1.0
    model: Optional["ClientNetworkModel"] = None
    if params.target_mean_latency_ms is not None:
        factor, model = _calibrate(graph, params, client_ids)

    return InetTopology(
        graph=graph,
        parameters=params,
        transit_ids=transit_ids,
        stub_ids=stub_ids,
        client_ids=client_ids,
        calibration_factor=factor,
        model=model,
    )


# -- construction phases ---------------------------------------------------


def _link_latency(
    graph: RouterTopology, params: InetParameters, a: int, b: int
) -> float:
    """Router-link latency: a fixed per-hop base plus a distance term.

    The base term models serialization/processing delay and narrows the
    relative spread of end-to-end latencies; paths of ~5.5 hops then mix
    a deterministic component with a distance-driven one, which is what
    produces the paper's tight 39-60 ms interquartile band.
    """
    distance = euclidean(graph.positions[a], graph.positions[b])
    return max(
        params.min_link_latency_ms,
        params.link_base_ms + distance * params.ms_per_unit,
    )


def _build_transit_core(
    graph: RouterTopology, params: InetParameters, rng: random.Random
) -> List[int]:
    """Spread transit routers over the plane; connect ring + Waxman links."""
    size = params.plane_size
    transit_ids = []
    for _ in range(params.transit_count):
        position = Point(rng.uniform(0, size), rng.uniform(0, size))
        transit_ids.append(graph.add_node(NodeKind.TRANSIT, position))

    # Ring ordered by angle around the plane centre guarantees a connected
    # core even if the random links are unlucky.
    center = Point(size / 2.0, size / 2.0)
    by_angle = sorted(
        transit_ids,
        key=lambda n: math.atan2(
            graph.positions[n].y - center.y, graph.positions[n].x - center.x
        ),
    )
    for i, node in enumerate(by_angle):
        neighbor = by_angle[(i + 1) % len(by_angle)]
        if not graph.has_edge(node, neighbor):
            graph.add_edge(node, neighbor, _link_latency(graph, params, node, neighbor))

    # Waxman-style extra links: each router draws ``transit_extra_degree``
    # partners, preferring close ones, which yields a dense low-diameter
    # core (mean transit path of 1.5-2 hops) like the Internet's.
    scale = size / 2.0
    for node in transit_ids:
        added = 0
        attempts = 0
        while added < params.transit_extra_degree and attempts < 200:
            attempts += 1
            other = rng.choice(transit_ids)
            if other == node or graph.has_edge(node, other):
                continue
            distance = euclidean(graph.positions[node], graph.positions[other])
            if rng.random() < math.exp(-distance / scale):
                graph.add_edge(node, other, _link_latency(graph, params, node, other))
                added += 1
    return transit_ids


def _pareto_sizes(
    rng: random.Random,
    total: int,
    count_hint: int,
    alpha: float,
    cap_factor: float = 4.0,
) -> List[int]:
    """Heavy-tailed positive integers summing exactly to ``total``.

    Weights above ``cap_factor`` times the mean weight are truncated;
    without the cap a single sample occasionally swallows a large share
    of the stub routers, which would concentrate most clients behind one
    transit router and distort the hop/latency distributions between
    seeds.
    """
    weights = [rng.paretovariate(alpha) for _ in range(count_hint)]
    mean_weight = sum(weights) / len(weights)
    weights = [min(w, cap_factor * mean_weight) for w in weights]
    weight_sum = sum(weights)
    sizes = [max(1, int(round(total * w / weight_sum))) for w in weights]
    if total < count_hint:
        raise ValueError(
            f"cannot partition {total} items into {count_hint} non-empty "
            "heavy-tailed buckets"
        )
    # Fix the rounding drift so the sizes partition ``total`` exactly.
    drift = total - sum(sizes)
    index = 0
    while drift != 0:
        position = index % len(sizes)
        if drift > 0:
            sizes[position] += 1
            drift -= 1
        elif sizes[position] > 1:
            sizes[position] -= 1
            drift += 1
        index += 1
    return sizes


def _build_stub_routers(
    graph: RouterTopology,
    params: InetParameters,
    rng: random.Random,
    transit_ids: List[int],
) -> List[int]:
    """Hang heavy-tailed bunches of stub routers off transit routers."""
    stub_total = params.router_count - params.transit_count
    sizes = _pareto_sizes(rng, stub_total, len(transit_ids), params.stub_pareto_alpha)

    stub_ids: List[int] = []
    size_limit = params.plane_size
    for transit, bunch in zip(transit_ids, sizes):
        anchor = graph.positions[transit]
        domain: List[int] = []
        for _ in range(bunch):
            position = Point(
                clamp(rng.gauss(anchor.x, params.stub_spread), 0, size_limit),
                clamp(rng.gauss(anchor.y, params.stub_spread), 0, size_limit),
            )
            stub = graph.add_node(NodeKind.STUB, position)
            # Most stubs attach straight to the transit core; a fraction
            # chain behind an earlier stub of the same domain, giving the
            # hop-count distribution its 7+ hop tail.
            if domain and rng.random() < params.stub_chain_probability:
                parent = rng.choice(domain)
                graph.add_edge(stub, parent, _link_latency(graph, params, stub, parent))
            else:
                graph.add_edge(
                    stub, transit, _link_latency(graph, params, stub, transit)
                )
                if rng.random() < params.multihoming_probability:
                    second = rng.choice(transit_ids)
                    if second != transit and not graph.has_edge(stub, second):
                        graph.add_edge(
                            stub, second, _link_latency(graph, params, stub, second)
                        )
            domain.append(stub)
            stub_ids.append(stub)
    return stub_ids


def _attach_clients(
    graph: RouterTopology,
    params: InetParameters,
    rng: random.Random,
    stub_ids: List[int],
) -> List[int]:
    """Attach each client to its own stub router over a 1 ms access link."""
    chosen = sample(rng, stub_ids, params.client_count)
    client_ids = []
    for stub in chosen:
        client = graph.add_node(NodeKind.CLIENT, graph.positions[stub])
        graph.add_edge(client, stub, params.client_access_latency_ms)
        client_ids.append(client)
    return client_ids


def _calibrate(
    graph: RouterTopology, params: InetParameters, client_ids: List[int]
) -> Tuple[float, Optional["ClientNetworkModel"]]:
    """Rescale router-router latencies so the mean client pair latency
    matches ``target_mean_latency_ms`` exactly.

    Uniform rescaling of non-access links cannot change hop-count-first
    routing decisions, so measuring once and scaling once is exact:
    ``mean = access_part + router_part`` and only ``router_part`` scales.

    The measurement pass is one routing sweep over the clients.  Because
    scaling is uniform, the post-calibration matrices are derivable from
    that pre-calibration sweep (access parts fixed, router part times the
    factor), so both the factor and the finished model come out of it.
    """
    from repro.topology.routing import (
        ClientNetworkModel,
        client_routing_sweep,
        mean_client_latency_split,
    )

    sweep = client_routing_sweep(graph, client_ids)
    access_part, router_part = mean_client_latency_split(
        graph, client_ids, sweep
    )
    if router_part <= 0:  # pragma: no cover - degenerate topologies
        return 1.0, None
    target = params.target_mean_latency_ms
    assert target is not None  # _calibrate only runs when a target is set
    factor = (target - access_part) / router_part
    if factor <= 0:
        raise ValueError(
            f"target latency {target} ms is below the access-link floor "
            f"({access_part:.2f} ms)"
        )
    graph.scale_latencies(factor, kinds={NodeKind.TRANSIT, NodeKind.STUB})
    model = ClientNetworkModel.from_scaled_sweep(
        graph, client_ids, sweep, factor
    )
    return factor, model
