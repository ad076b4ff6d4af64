"""Router-level topology container.

A :class:`RouterTopology` is an undirected weighted graph of routers
(transit, stub) and client hosts.  Edge weights are link latencies in
milliseconds.  The structure is deliberately plain -- adjacency lists of
``(neighbor, latency)`` pairs -- because routing (a level-by-level BFS)
over it is on the hot path when building latency matrices for large
topologies.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.topology.geometry import Point


class NodeKind(enum.Enum):
    """Role of a node in the transit-stub hierarchy."""

    TRANSIT = "transit"
    STUB = "stub"
    CLIENT = "client"


class RouterTopology:
    """An undirected latency-weighted graph with planar coordinates.

    Nodes are dense integer ids assigned by :meth:`add_node`.  Latencies
    are milliseconds.  The graph enforces symmetry: an edge added once is
    visible from both endpoints with the same latency.
    """

    def __init__(self) -> None:
        self.kinds: List[NodeKind] = []
        self.positions: List[Point] = []
        self.adjacency: List[List[Tuple[int, float]]] = []
        self._edge_latency: Dict[Tuple[int, int], float] = {}

    # -- construction -----------------------------------------------------

    def add_node(self, kind: NodeKind, position: Point) -> int:
        """Add a node; returns its integer id."""
        node_id = len(self.kinds)
        self.kinds.append(kind)
        self.positions.append(position)
        self.adjacency.append([])
        return node_id

    def add_edge(self, a: int, b: int, latency: float) -> None:
        """Add an undirected link with the given latency (ms)."""
        if a == b:
            raise ValueError(f"self-loop on node {a}")
        if latency <= 0:
            raise ValueError(f"latency must be positive, got {latency}")
        key = (a, b) if a < b else (b, a)
        if key in self._edge_latency:
            raise ValueError(f"duplicate edge {key}")
        self._edge_latency[key] = latency
        self.adjacency[a].append((b, latency))
        self.adjacency[b].append((a, latency))

    def scale_latencies(
        self, factor: float, kinds: Optional[Set[NodeKind]] = None
    ) -> None:
        """Multiply link latencies by ``factor``.

        When ``kinds`` is given, only links whose *both* endpoints are of
        one of those kinds are rescaled.  The generator uses this to
        calibrate router-router latencies to the paper's 50 ms mean while
        leaving the fixed 1 ms client access links untouched.
        """
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        for key, latency in list(self._edge_latency.items()):
            a, b = key
            if kinds is not None:
                if self.kinds[a] not in kinds or self.kinds[b] not in kinds:
                    continue
            self._edge_latency[key] = latency * factor
        self._rebuild_adjacency()

    def _rebuild_adjacency(self) -> None:
        for neighbors in self.adjacency:
            neighbors.clear()
        for (a, b), latency in self._edge_latency.items():
            self.adjacency[a].append((b, latency))
            self.adjacency[b].append((a, latency))

    # -- queries ----------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.kinds)

    @property
    def edge_count(self) -> int:
        return len(self._edge_latency)

    def nodes_of_kind(self, kind: NodeKind) -> List[int]:
        return [i for i, k in enumerate(self.kinds) if k == kind]

    @property
    def router_count(self) -> int:
        """Number of non-client nodes (the "Inet node" count)."""
        return sum(1 for k in self.kinds if k != NodeKind.CLIENT)

    def edge_latency(self, a: int, b: int) -> float:
        key = (a, b) if a < b else (b, a)
        return self._edge_latency[key]

    def has_edge(self, a: int, b: int) -> bool:
        key = (a, b) if a < b else (b, a)
        return key in self._edge_latency

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        for (a, b), latency in self._edge_latency.items():
            yield a, b, latency

    def degree(self, node: int) -> int:
        return len(self.adjacency[node])

    def is_connected(self) -> bool:
        """True when every node is reachable from node 0 (or graph empty)."""
        if self.node_count == 0:
            return True
        seen = [False] * self.node_count
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            node = stack.pop()
            for neighbor, _ in self.adjacency[node]:
                if not seen[neighbor]:
                    seen[neighbor] = True
                    count += 1
                    stack.append(neighbor)
        return count == self.node_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RouterTopology(nodes={self.node_count}, "
            f"edges={self.edge_count})"
        )
