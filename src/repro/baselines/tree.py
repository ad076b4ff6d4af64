"""Explicit spanning-tree multicast (the structured baseline).

Structured multicast protocols "explicitly build a dissemination
structure according to predefined efficiency criteria ... and then use
it to convey multiple messages" (paper, section 1).  This baseline does
exactly that over the same simulated fabric the gossip stack uses:

- per source, a **shortest-path tree** (latency-weighted Dijkstra over
  the client model) is computed and cached -- the efficiency criterion
  structured systems optimize;
- a multicast walks the tree: each node forwards the payload to its
  children, giving exactly-once payload delivery and near-optimal
  latency while the membership is stable;
- when nodes fail, entire subtrees go dark until :meth:`repair` rebuilds
  the trees around the failed set -- the fragility the paper contrasts
  against gossip's.  Repair is modelled with an oracle failure detector
  plus a configurable detection/rebuild delay.

The point of this module is the quantitative comparison in
:mod:`repro.experiments.baselines`, which runs the tree through the
same :func:`~repro.experiments.runner.run_experiment` harness as the
gossip rows: tree multicast wins on payload cost and latency in the
failure-free runs, and loses catastrophically on deliveries when hubs
die between repairs -- the trade-off the Payload Scheduler is designed
to dissolve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.network.message import payload_packet_size
from repro.network.transport import ConnectionTransport, Endpoint

TREE_MSG = "TREE_MSG"

#: Delivery callback: (node, message_id, payload) -> None
DeliverFn = Callable[[int, int, Any], None]


@dataclass(frozen=True)
class TreeConfig:
    """Baseline parameters.

    ``payload_bytes`` sizes the wire packets like the gossip stack's.
    ``max_degree`` caps a node's children, the classic overlay-multicast
    constraint.  The cap matters doubly here: without it, a shortest-path
    tree over a metric latency space degenerates into a star (the direct
    edge is always shortest by the triangle inequality), which models a
    root with unbounded capacity rather than a dissemination tree.
    ``None`` allows that degenerate case for analysis.
    """

    payload_bytes: int = 256
    max_degree: Optional[int] = 12

    def __post_init__(self) -> None:
        if self.payload_bytes < 1:
            raise ValueError("payload_bytes must be >= 1")
        if self.max_degree is not None and self.max_degree < 1:
            raise ValueError("max_degree must be >= 1 when set")


class TreeMulticastSystem:
    """Spanning-tree multicast over a cluster-style fabric/transport."""

    def __init__(
        self,
        transport: ConnectionTransport,
        model,
        deliver: DeliverFn,
        config: Optional[TreeConfig] = None,
    ) -> None:
        self.transport = transport
        self.model = model
        self.config = config or TreeConfig()
        self._deliver = deliver
        self._packet_size = payload_packet_size(self.config.payload_bytes)
        self._endpoints: List[Endpoint] = []
        for node in range(model.size):
            endpoint = transport.endpoint(node)
            endpoint.set_receiver(self._make_receiver(node))
            self._endpoints.append(endpoint)
        # children[root][node] -> list of children of ``node`` in the
        # tree rooted at ``root``.
        self._children: Dict[int, List[List[int]]] = {}
        self._excluded: set = set()
        self.repairs = 0

    # -- tree construction ------------------------------------------------------

    def _tree_for(self, root: int) -> List[List[int]]:
        children = self._children.get(root)
        if children is None:
            children = self._build_tree(root)
            self._children[root] = children
        return children

    def _build_tree(self, root: int) -> List[List[int]]:
        """Degree-bounded latency tree rooted at ``root``.

        Greedy capacitated attachment (degree-bounded shortest-path
        trees are NP-hard; this is the standard heuristic overlay
        multicast systems use): repeatedly attach the off-tree node with
        the smallest root-distance through any under-capacity tree node.
        With ``max_degree=None`` this reduces to the exact shortest-path
        tree -- which, over a metric latency space, is the degenerate
        star.  Excluded (known-failed) nodes are skipped.
        """
        n = self.model.size
        cap = self.config.max_degree
        latency = self.model.latency
        distance = [0.0] * n
        degree = [0] * n
        parent: List[Optional[int]] = [None] * n
        in_tree = [False] * n
        in_tree[root] = True
        # best[peer] = (cost through best current parent, parent)
        best: Dict[int, Tuple[float, int]] = {}
        candidates = [
            p for p in range(n) if p != root and p not in self._excluded
        ]
        for peer in candidates:
            best[peer] = (latency(root, peer), root)

        def saturated(node: int) -> bool:
            return cap is not None and degree[node] >= cap

        while best:
            peer = min(best, key=lambda p: best[p][0])
            cost, attach = best.pop(peer)
            if saturated(attach):
                # Stale entry: recompute against the current tree.
                entry = self._best_attachment(peer, in_tree, degree, distance)
                if entry is None:  # pragma: no cover - cap too tight
                    continue
                best[peer] = entry
                continue
            parent[peer] = attach
            degree[attach] += 1
            distance[peer] = cost
            in_tree[peer] = True
            if not saturated(peer):
                for other, (other_cost, _) in list(best.items()):
                    through_peer = cost + latency(peer, other)
                    if through_peer < other_cost:
                        best[other] = (through_peer, peer)

        children: List[List[int]] = [[] for _ in range(n)]
        for node in range(n):
            p = parent[node]
            if p is not None:
                children[p].append(node)
        return children

    def _best_attachment(
        self,
        peer: int,
        in_tree: List[bool],
        degree: List[int],
        distance: List[float],
    ) -> Optional[Tuple[float, int]]:
        cap = self.config.max_degree
        best_cost = float("inf")
        best_parent = None
        for node in range(self.model.size):
            if not in_tree[node]:
                continue
            if cap is not None and degree[node] >= cap:
                continue
            cost = distance[node] + self.model.latency(node, peer)
            if cost < best_cost:
                best_cost = cost
                best_parent = node
        if best_parent is None:
            return None
        return best_cost, best_parent

    # -- operation ---------------------------------------------------------------

    def start(self) -> None:
        """A tree runs no periodic agent."""

    def stop(self) -> None:
        """A tree runs no periodic agent."""

    def multicast_with_id(self, origin: int, message_id: int, payload: Any) -> None:
        """Deliver ``payload`` at ``origin`` and send it down origin's tree."""
        self._deliver(origin, message_id, payload)
        self._forward(origin, origin, message_id, payload)

    def repair(self, failed_nodes) -> None:
        """Rebuild every cached tree around ``failed_nodes``.

        Models the (detector + reconstruction) cycle of structured
        systems; callers add whatever detection delay they model before
        invoking it.
        """
        self._excluded.update(failed_nodes)
        self._children.clear()
        self.repairs += 1

    # -- internals ------------------------------------------------------------------

    def _forward(self, root: int, node: int, message_id: int, payload: Any) -> None:
        for child in self._tree_for(root)[node]:
            self._endpoints[node].send(
                child, TREE_MSG, (root, message_id, payload), self._packet_size
            )

    def _make_receiver(self, node: int):
        def receive(src: int, kind: str, wire_payload: Any) -> None:
            if kind != TREE_MSG:  # pragma: no cover - wiring error
                raise ValueError(f"unexpected tree message kind {kind!r}")
            root, message_id, payload = wire_payload
            self._deliver(node, message_id, payload)
            self._forward(root, node, message_id, payload)

        return receive
