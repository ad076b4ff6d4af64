"""Best-node ranking for the Ranked strategy.

The paper offers two routes to a best-node set (section 4.1): explicit
configuration (e.g. by an ISP) and a rank "computed using local
Performance Monitors and a gossip based sorting protocol [11]", noting
the protocol only needs the ranking to be *approximate*.  Both are
implemented here:

- :class:`OracleRanking` -- global knowledge: score every node by its
  closeness (mean model latency to all others) and take the best
  ``fraction``; this is the model-file-driven ranking the evaluation
  uses.
- :class:`GossipRanking` -- the distributed protocol: each node carries
  a bounded list of the best ``(score, node)`` pairs it has heard of,
  merging lists with random neighbours epidemically.  Every node's view
  of the top set converges quickly; until then views disagree, which is
  exactly the approximation the protocol is robust to.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.network.message import PACKET_OVERHEAD_BYTES
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer
from repro.topology.routing import ClientNetworkModel

RANK = "RANK"

#: Wire size charged per (score, node) entry in a rank exchange.
_BYTES_PER_ENTRY = 12

SendFn = Callable[[int, str, object, int], None]
NeighborsFn = Callable[[], List[int]]
ScoreFn = Callable[[], float]


class OracleRanking:
    """Best nodes = lowest-closeness ``fraction`` of the population."""

    def __init__(self, model: ClientNetworkModel, fraction: float) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction out of range: {fraction}")
        self.fraction = fraction
        count = max(1, round(model.size * fraction))
        by_closeness = sorted(range(model.size), key=model.closeness)
        self._best = frozenset(by_closeness[:count])

    @property
    def best_nodes(self) -> frozenset:
        return self._best

    def is_best(self, node: int) -> bool:
        return node in self._best


#: One :class:`OracleRanking` per (model, fraction): the closeness sort
#: is O(n^2) and the same for every node, so strategies share it.  Keyed
#: weakly by the model, so a dead model's entries go with it.
_oracle_rankings: weakref.WeakKeyDictionary[
    ClientNetworkModel, Dict[float, OracleRanking]
] = weakref.WeakKeyDictionary()


def oracle_ranking(model: ClientNetworkModel, fraction: float) -> OracleRanking:
    """The shared :class:`OracleRanking` of ``model`` at ``fraction``."""
    rankings = _oracle_rankings.setdefault(model, {})
    ranking = rankings.get(fraction)
    if ranking is None:
        ranking = rankings[fraction] = OracleRanking(model, fraction)
    return ranking


class ScoreRanking:
    """Best nodes = the ``count`` lowest-scored of a given score table.

    The general static form behind :class:`OracleRanking`: any node
    quality measure works -- model closeness, configured capacity (lower
    score = more capacity), administrative preference.  Used for the
    heterogeneous-capacity experiments, where hubs should be the nodes
    that can actually afford hub load.
    """

    def __init__(self, scores: Dict[int, float], count: int) -> None:
        if count < 1:
            raise ValueError("count must be >= 1")
        if not scores:
            raise ValueError("scores must not be empty")
        ranked = sorted(scores.items(), key=lambda item: (item[1], item[0]))
        self._best = frozenset(node for node, _ in ranked[:count])

    @property
    def best_nodes(self) -> frozenset:
        return self._best

    def is_best(self, node: int) -> bool:
        return node in self._best


@dataclass(frozen=True)
class RankingConfig:
    """Gossip ranking parameters.

    ``best_count`` is how many nodes count as best (the paper's hubs are
    ~5-20% of the population).  ``list_capacity`` bounds the carried
    top-list; a few multiples of ``best_count`` is plenty.
    """

    best_count: int = 5
    list_capacity: int = 20
    exchange_period_ms: float = 500.0
    exchange_jitter_ms: float = 100.0

    def __post_init__(self) -> None:
        if self.best_count < 1:
            raise ValueError("best_count must be >= 1")
        if self.list_capacity < self.best_count:
            raise ValueError("list_capacity must be >= best_count")
        if self.exchange_period_ms <= 0:
            raise ValueError("exchange_period_ms must be positive")


class GossipRanking:
    """One node's epidemic top-k ranking agent.

    Scores are "lower is better" (e.g. mean RTT to neighbours).  The
    local score is re-evaluated on every exchange so the ranking tracks
    a drifting environment.
    """

    KINDS = (RANK,)

    def __init__(
        self,
        sim: Simulator,
        node: int,
        send: SendFn,
        neighbors: NeighborsFn,
        local_score: ScoreFn,
        config: Optional[RankingConfig] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.config = config or RankingConfig()
        self._send = send
        self._neighbors = neighbors
        self._local_score = local_score
        self._rng = sim.rng.stream(f"monitor.ranking.{node}")
        self._scores: Dict[int, float] = {}
        self.exchanges = 0
        self._timer = PeriodicTimer(
            sim, self.config.exchange_period_ms, self._exchange_tick,
            jitter=self._jitter,
        )

    def _jitter(self) -> float:
        spread = self.config.exchange_jitter_ms
        return self._rng.uniform(-spread, spread) if spread > 0 else 0.0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        self._timer.start(
            initial_delay=self._rng.uniform(0, self.config.exchange_period_ms)
        )

    def stop(self) -> None:
        self._timer.stop()

    # -- RankingView ---------------------------------------------------------------

    def is_best(self, node: int) -> bool:
        """True when ``node`` ranks within the best ``best_count`` ids
        this agent currently knows of."""
        if node not in self._scores and node != self.node:
            return False
        return node in self.best_nodes()

    def best_nodes(self) -> List[int]:
        """The current local estimate of the best-node set."""
        self._refresh_local_score()
        ranked = sorted(self._scores.items(), key=lambda item: (item[1], item[0]))
        return [node for node, _ in ranked[: self.config.best_count]]

    # -- exchange protocol ------------------------------------------------------------

    def _refresh_local_score(self) -> None:
        score = self._local_score()
        if score != float("inf"):
            self._scores[self.node] = score
        self._truncate()

    def _truncate(self) -> None:
        if len(self._scores) <= self.config.list_capacity:
            return
        ranked = sorted(self._scores.items(), key=lambda item: (item[1], item[0]))
        self._scores = dict(ranked[: self.config.list_capacity])

    def _exchange_tick(self) -> None:
        neighbors = self._neighbors()
        if not neighbors:
            return
        self._refresh_local_score()
        partner = self._rng.choice(neighbors)
        entries = list(self._scores.items())
        self.exchanges += 1
        self._send(partner, RANK, entries, self._wire_size(entries))

    def handle(self, src: int, kind: str, payload: object) -> None:
        """Dispatch entry point for RANK messages."""
        if kind != RANK:  # pragma: no cover - wiring error
            raise ValueError(f"unexpected ranking message kind {kind!r}")
        for node, score in payload:  # type: ignore[union-attr]
            known = self._scores.get(node)
            # Newer information wins for the node itself; for others keep
            # the better (lower) score, which converges to the true value.
            if node == self.node:
                continue
            if known is None or score < known:
                self._scores[node] = score
        self._truncate()

    @staticmethod
    def _wire_size(entries: List[Tuple[int, float]]) -> int:
        return PACKET_OVERHEAD_BYTES + _BYTES_PER_ENTRY * len(entries)
