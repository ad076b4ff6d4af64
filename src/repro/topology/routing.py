"""Shortest-path routing and the client-level network model.

Routing policy: **hop-count first, latency second** (lexicographic).
This mirrors how ModelNet routes between virtual nodes over an Inet
model -- Internet routing minimizes AS hops, not propagation delay -- and
it is what makes latency calibration in :mod:`repro.topology.inet` exact.

The end product consumed by the network fabric is a
:class:`ClientNetworkModel`: dense latency / hop / distance matrices
between the *client* nodes only.  Everything above the topology package
speaks in client indices ``0..n-1``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.topology.geometry import Point, euclidean
from repro.topology.graph import RouterTopology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.topology.inet import InetTopology

_INF = float("inf")


def _route(
    adjacency: Sequence[Sequence[Tuple[int, float]]], source: int
) -> Tuple[List[int], List[float]]:
    """Level-synchronous BFS under (hops, latency) lexicographic cost.

    A node's hop count is its BFS level, and its latency is the minimum
    of ``latency[u] + link`` over its neighbours ``u`` one level up, all
    of them final before the next level is opened.  A heap Dijkstra on
    ``(hops, latency)`` keys evaluates the same float expression on the
    same operands and keeps the same minimum, so the two agree bit for
    bit (held by ``tests/topology/test_routing_oracle.py``).
    """
    hops = [-1] * len(adjacency)
    latency = [_INF] * len(adjacency)
    hops[source] = 0
    latency[source] = 0.0
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        reached = []
        for node in frontier:
            base = latency[node]
            for neighbor, link_latency in adjacency[node]:
                seen = hops[neighbor]
                if seen == -1:
                    hops[neighbor] = level
                    latency[neighbor] = base + link_latency
                    reached.append(neighbor)
                elif seen == level:
                    candidate = base + link_latency
                    if candidate < latency[neighbor]:
                        latency[neighbor] = candidate
        frontier = reached
    return hops, latency


def shortest_paths(
    graph: RouterTopology, source: int
) -> Tuple[List[int], List[float]]:
    """Single-source shortest paths under (hops, latency) lexicographic cost.

    Returns ``(hops, latency)`` lists indexed by node id; unreachable
    nodes carry ``-1`` hops and ``inf`` latency.
    """
    return _route(graph.adjacency, source)


def _client_core(
    graph: RouterTopology, client_ids: Sequence[int]
) -> List[List[Tuple[int, float]]]:
    """Adjacency of the subgraph that client-to-client paths can use.

    A non-client node of degree <= 1 can only end a path, never lie
    inside one, so stripping such nodes -- repeatedly: a chain unravels
    from its tip -- changes no route between clients.  The survivors are
    relabelled with the clients first, in ``client_ids`` order.
    """
    adjacency = graph.adjacency
    index: Dict[int, int] = {client: i for i, client in enumerate(client_ids)}
    if len(index) != len(client_ids):
        raise ValueError("client_ids must be distinct")
    degree = [len(neighbors) for neighbors in adjacency]
    dangling = [
        node for node, d in enumerate(degree) if d <= 1 and node not in index
    ]
    while dangling:
        node = dangling.pop()
        degree[node] = 0
        for neighbor, _ in adjacency[node]:
            degree[neighbor] -= 1
            if degree[neighbor] == 1 and neighbor not in index:
                dangling.append(neighbor)
    for node, d in enumerate(degree):
        if d > 1 and node not in index:
            index[node] = len(index)
    return [
        [(index[nb], lat) for nb, lat in adjacency[node] if nb in index]
        for node in index
    ]


#: Per-source routing results, one ``(hops, latency)`` pair per client in
#: ``client_ids`` order, each list indexed by *client position* -- the
#: unit of reuse between latency calibration and model construction.
RoutingSweep = List[Tuple[List[int], List[float]]]


def client_routing_sweep(
    graph: RouterTopology, client_ids: Sequence[int]
) -> RoutingSweep:
    """Route from every client to every client, over the client core;
    a client that cannot reach another is a ``ValueError``."""
    core = _client_core(graph, client_ids)
    n = len(client_ids)
    sweep = []
    for source in range(n):
        hops, latency = (row[:n] for row in _route(core, source))
        if min(hops) < 0:
            raise ValueError(
                f"client {client_ids[hops.index(-1)]} unreachable from "
                f"client {client_ids[source]}"
            )
        sweep.append((hops, latency))
    return sweep


def mean_client_latency_split(
    graph: RouterTopology, client_ids: Sequence[int], sweep: RoutingSweep
) -> Tuple[float, float]:
    """Mean client-pair latency split into (access part, router part).

    Clients are degree-1 leaves, so every client-to-client path crosses
    exactly the two endpoint access links; the access part is therefore
    the mean of the two access-link latencies over all pairs and the
    router part is the remainder.  Used by latency calibration, on the
    ``sweep`` that :func:`client_routing_sweep` returned for these clients.
    """
    n = len(client_ids)
    if n < 2:
        raise ValueError("need at least two clients")
    access = [graph.adjacency[client][0][1] for client in client_ids]
    total = 0.0
    access_total = 0.0
    for index, (_, latency) in enumerate(sweep):
        access_source = access[index]
        for pair_latency, access_target in zip(
            latency[index + 1 :], access[index + 1 :]
        ):
            total += pair_latency
            access_total += access_source + access_target
    pair_count = n * (n - 1) // 2
    mean_total = total / pair_count
    mean_access = access_total / pair_count
    return mean_access, mean_total - mean_access


class ClientNetworkModel:
    """Dense latency / hop / position model between client nodes.

    This is the "model file" the paper's evaluation drives every
    strategy from (section 4.3): each node's strategy reads its own row
    of these matrices and the shared :meth:`best_nodes` set.
    """

    def __init__(
        self,
        latency_ms: List[List[float]],
        hops: List[List[int]],
        positions: List[Point],
    ) -> None:
        n = len(latency_ms)
        if any(len(row) != n for row in latency_ms):
            raise ValueError("latency matrix must be square")
        if len(hops) != n or any(len(row) != n for row in hops):
            raise ValueError("hops matrix must match latency matrix")
        if len(positions) != n:
            raise ValueError("positions must match matrix size")
        self.latency_ms = latency_ms
        self.hops = hops
        self.positions = positions
        # Derived-statistic caches.  The matrices are immutable after
        # construction, so these never need invalidation; they are
        # computed on first use with exactly the historic arithmetic
        # (same summation order) so cached and uncached values are
        # bit-identical.
        self._mean_latency: Optional[float] = None
        self._closeness: Optional[List[float]] = None
        self._best_nodes: Dict[float, FrozenSet[int]] = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_topology(
        cls, graph: RouterTopology, client_ids: Sequence[int]
    ) -> "ClientNetworkModel":
        """Build matrices by routing between the given nodes of ``graph``
        (any nodes, not only leaves): the sweep's rows are the matrices."""
        sweep = client_routing_sweep(graph, client_ids)
        return cls(
            [latency for _, latency in sweep],
            [hops for hops, _ in sweep],
            [graph.positions[c] for c in client_ids],
        )

    @classmethod
    def from_scaled_sweep(
        cls,
        graph: RouterTopology,
        client_ids: Sequence[int],
        sweep: "RoutingSweep",
        router_scale: float,
    ) -> "ClientNetworkModel":
        """Build matrices from a pre-calibration sweep plus the
        calibration factor.

        Uniform rescaling of router-router links cannot change which
        paths hop-count-first routing picks (see
        :mod:`repro.topology.inet`), so the post-calibration latency of a
        client pair is ``access_i + access_j + factor * router_part`` --
        derivable from the *unscaled* sweep without routing again.
        Client access links are degree-1 leaves excluded from scaling.
        """
        access = [graph.adjacency[client][0][1] for client in client_ids]
        latency_ms = []
        for i, (_, latency) in enumerate(sweep):
            access_i = access[i]
            row = [
                access_i + access_j + router_scale * (lat - access_i - access_j)
                for lat, access_j in zip(latency, access)
            ]
            row[i] = 0.0
            latency_ms.append(row)
        positions = [graph.positions[c] for c in client_ids]
        return cls(latency_ms, [hops for hops, _ in sweep], positions)

    @classmethod
    def from_inet(cls, inet_topology: "InetTopology") -> "ClientNetworkModel":
        """Build from a :class:`repro.topology.inet.InetTopology`.

        Calibrated topologies carry the model derived from their
        calibration sweep; reuse it rather than routing again.
        """
        model = inet_topology.model
        if model is not None:
            return model
        return cls.from_topology(inet_topology.graph, inet_topology.client_ids)

    @classmethod
    def uniform(cls, n: int, latency_ms: float = 50.0) -> "ClientNetworkModel":
        """All-pairs-equal model; handy for analytic unit tests."""
        latency = [
            [0.0 if i == j else latency_ms for j in range(n)] for i in range(n)
        ]
        hops = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
        positions = [Point(float(i), 0.0) for i in range(n)]
        return cls(latency, hops, positions)

    # -- queries -----------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.latency_ms)

    def latency(self, a: int, b: int) -> float:
        """One-way latency in ms between clients ``a`` and ``b``."""
        return self.latency_ms[a][b]

    def rtt(self, a: int, b: int) -> float:
        """Round-trip time in ms between clients ``a`` and ``b``."""
        return self.latency_ms[a][b] + self.latency_ms[b][a]

    def hop_distance(self, a: int, b: int) -> int:
        return self.hops[a][b]

    def distance(self, a: int, b: int) -> float:
        """Pseudo-geographical distance between clients ``a`` and ``b``."""
        return euclidean(self.positions[a], self.positions[b])

    def mean_latency(self) -> float:
        """Mean latency over ordered client pairs (cached on first use)."""
        cached = self._mean_latency
        if cached is not None:
            return cached
        n = self.size
        if n < 2:
            result = 0.0
        else:
            total = sum(
                self.latency_ms[i][j]
                for i in range(n)
                for j in range(n)
                if i != j
            )
            result = total / (n * (n - 1))
        self._mean_latency = result
        return result

    def closeness(self, node: int) -> float:
        """Mean latency from ``node`` to every other client.

        Lower is more central; the oracle ranking uses this as the node
        quality metric (a well-placed node can serve many peers quickly).
        Computed for every node on first use and cached: ranking
        refreshes ask for it per node per refresh, which used to cost an
        O(n) scan each time.
        """
        cache = self._closeness
        if cache is None:
            n = self.size
            if n < 2:
                cache = [0.0] * n
            else:
                cache = [
                    sum(row[j] for j in range(n) if j != i) / (n - 1)
                    for i, row in enumerate(self.latency_ms)
                ]
            self._closeness = cache
        return cache[node]

    def best_nodes(self, fraction: float) -> FrozenSet[int]:
        """The Ranked strategy's hubs: the lowest-:meth:`closeness`
        ``fraction`` of the population (at least one node; stable sort,
        so ties go to the lower id).  Cached per fraction, since every
        node's strategy asks for the same O(n^2) set.
        """
        best = self._best_nodes.get(fraction)
        if best is None:
            if not 0.0 < fraction <= 1.0:
                raise ValueError(f"fraction out of range: {fraction}")
            count = max(1, round(self.size * fraction))
            by_closeness = sorted(range(self.size), key=self.closeness)
            best = self._best_nodes[fraction] = frozenset(by_closeness[:count])
        return best

    def nearest(self, node: int, candidates: Sequence[int]) -> Optional[int]:
        """The candidate with the lowest latency from ``node``."""
        best = None
        best_latency = math.inf
        for candidate in candidates:
            if candidate == node:
                continue
            lat = self.latency_ms[node][candidate]
            if lat < best_latency:
                best_latency = lat
                best = candidate
        return best
