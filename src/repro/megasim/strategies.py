"""Vectorized transmission strategies.

:func:`compile_strategy` consumes the *same* frozen factory dataclasses
the event kernel consumes (:mod:`repro.experiments.scenarios`) and
produces a :class:`CompiledStrategy`: an ``eager_mask`` evaluator over
whole (src, dst, round) batches plus the request-schedule constants
translated from milliseconds to integer slot counts.

The semantic mapping to the event kernel:

- ``eager(i, d, r, p)`` is evaluated with ``r`` = the *forward* round
  (the round the receiving peer will deliver at), exactly as
  ``GossipProtocol._forward`` passes ``round_ + 1`` to ``l_send``.
- ``first_request_delay`` / ``retry_period_ms`` become round counters
  at ``round_ms`` per slot.  Exact differential configurations use
  delays divisible by the slot (and avoid exactly one slot, where the
  event kernel's intra-slot event order is ambiguous); anything else is
  a legitimate round-approximation.  ``retry_rounds`` is live: under
  injected loss or crashes the kernel re-fires pending requests every
  retry period, walking the advertised sources exactly like
  ``RequestQueue`` (in a loss-free run no retry can ever fire, since a
  pull completes in 2 slots and the retry period exceeds 2).
- ``select_source`` becomes ``nearest_source``: False = FIFO (first
  advertiser), True = lowest monitor metric, first-on-ties -- matching
  ``min(sources, key=metric)`` over arrival order.

Monitor-driven factories (``RadiusMeasuredFactory``,
``RankedGossipFactory``) and the noise wrapper need live per-node agents
and are rejected; the oracle factories cover the paper's evaluation
mode, which is what the scale tier sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from repro.experiments.scenarios import (
    FlatFactory,
    HybridFactory,
    RadiusFactory,
    RankedFactory,
    TtlFactory,
)
from repro.megasim.adapter import METRIC_LATENCY, VectorTopology
from repro.runtime.node import StrategyFactory
from repro.scheduler.interfaces import DEFAULT_RETRY_PERIOD_MS


class UnsupportedStrategyError(TypeError):
    """Raised for factories the vector backend cannot evaluate."""


def ms_to_rounds(delay_ms: float, round_ms: float) -> int:
    """Translate a millisecond delay to whole slots (round, floor at 0)."""
    if round_ms <= 0:
        raise ValueError(f"round_ms must be positive, got {round_ms}")
    if delay_ms < 0:
        raise ValueError(f"delay must be >= 0, got {delay_ms}")
    return max(0, round(delay_ms / round_ms))


class EagerEvaluator:
    """Base class: ``Eager?`` over aligned (src, dst, round) arrays."""

    #: True when the evaluator consumes random draws (Flat 0 < p < 1);
    #: such strategies can only match the event kernel statistically.
    uses_rng = False
    #: True when the rule reads the forward round (TTL, Hybrid).  The
    #: kernel stores no per-packet round, so ``rnd`` is built -- one
    #: value per pair -- only for such classes and is ``None`` otherwise.
    uses_round = False

    def eager_mask(
        self,
        src: NDArray[np.int32],
        dst: NDArray[np.int32],
        rnd: Optional[NDArray[np.int32]],
        rng: np.random.Generator,
    ) -> NDArray[np.bool_]:
        raise NotImplementedError


class FlatEvaluator(EagerEvaluator):
    """Flat(p): eager with fixed probability, degenerate ends drawless."""

    def __init__(self, probability: float) -> None:
        self.probability = probability
        self.uses_rng = 0.0 < probability < 1.0

    def eager_mask(
        self,
        src: NDArray[np.int32],
        dst: NDArray[np.int32],
        rnd: Optional[NDArray[np.int32]],
        rng: np.random.Generator,
    ) -> NDArray[np.bool_]:
        if self.probability >= 1.0:
            return np.ones(src.shape, dtype=bool)
        if self.probability <= 0.0:
            return np.zeros(src.shape, dtype=bool)
        return rng.random(src.shape[0]) < self.probability


class TtlEvaluator(EagerEvaluator):
    """TTL(u): eager iff the forward round is below ``u``."""

    uses_round = True

    def __init__(self, eager_rounds: int) -> None:
        self.eager_rounds = eager_rounds

    def eager_mask(
        self,
        src: NDArray[np.int32],
        dst: NDArray[np.int32],
        rnd: Optional[NDArray[np.int32]],
        rng: np.random.Generator,
    ) -> NDArray[np.bool_]:
        assert rnd is not None  # uses_round
        return np.asarray(rnd < self.eager_rounds, dtype=bool)


class RadiusEvaluator(EagerEvaluator):
    """Radius(rho): eager iff ``Metric(p) < rho``."""

    def __init__(
        self, topology: VectorTopology, metric_kind: str, radius: float
    ) -> None:
        self.topology = topology
        self.metric_kind = metric_kind
        self.radius = radius

    def eager_mask(
        self,
        src: NDArray[np.int32],
        dst: NDArray[np.int32],
        rnd: Optional[NDArray[np.int32]],
        rng: np.random.Generator,
    ) -> NDArray[np.bool_]:
        return self.topology.closer(self.metric_kind, src, dst, self.radius)


class RankedEvaluator(EagerEvaluator):
    """Ranked: eager iff either endpoint is a best node."""

    def __init__(self, best: NDArray[np.bool_]) -> None:
        self.best = best

    def eager_mask(
        self,
        src: NDArray[np.int32],
        dst: NDArray[np.int32],
        rnd: Optional[NDArray[np.int32]],
        rng: np.random.Generator,
    ) -> NDArray[np.bool_]:
        return np.asarray(self.best[src] | self.best[dst], dtype=bool)


class HybridEvaluator(EagerEvaluator):
    """Section 6.4 combined rule with the sender-side best test.

    Mirrors :class:`~repro.strategies.hybrid.HybridStrategy` with its
    default ``symmetric_best=False``: eager iff the sender is a hub, or
    the metric clears ``2 * rho`` during the first ``u`` rounds and
    ``rho`` afterwards.
    """

    uses_round = True

    def __init__(
        self,
        best: NDArray[np.bool_],
        topology: VectorTopology,
        metric_kind: str,
        radius: float,
        eager_rounds: int,
    ) -> None:
        self.best = best
        self.topology = topology
        self.metric_kind = metric_kind
        self.radius = radius
        self.eager_rounds = eager_rounds

    def eager_mask(
        self,
        src: NDArray[np.int32],
        dst: NDArray[np.int32],
        rnd: Optional[NDArray[np.int32]],
        rng: np.random.Generator,
    ) -> NDArray[np.bool_]:
        assert rnd is not None  # uses_round
        effective = np.where(rnd < self.eager_rounds, 2.0 * self.radius, self.radius)
        closer = self.topology.closer(self.metric_kind, src, dst, effective)
        return np.asarray(self.best[src] | closer, dtype=bool)


@dataclass(frozen=True)
class CompiledStrategy:
    """One strategy, vector form: evaluator plus schedule constants."""

    evaluator: EagerEvaluator
    #: Slots between the first advertisement and the first IWANT.
    first_delay_rounds: int
    #: Slots between retries (the paper's ``T``); must exceed the
    #: 2-slot pull round-trip or requests would retry before their
    #: answer can arrive.
    retry_rounds: int
    #: Source-selection discipline: False = FIFO, True = nearest.
    nearest_source: bool
    #: Metric the nearest-source discipline ranks sources by.
    metric_kind: str = METRIC_LATENCY

    @property
    def uses_rng(self) -> bool:
        return self.evaluator.uses_rng

    def __post_init__(self) -> None:
        if self.first_delay_rounds < 0:
            raise ValueError("first_delay_rounds must be >= 0")
        if self.retry_rounds <= 2:
            raise ValueError(
                "retry_rounds must be > 2 (a pull completes in 2 slots)"
            )


def compile_strategy(
    factory: StrategyFactory,
    topology: VectorTopology,
    retry_period_ms: float = DEFAULT_RETRY_PERIOD_MS,
    round_ms: Optional[float] = None,
) -> CompiledStrategy:
    """Compile an event-kernel strategy factory for ``topology``."""
    if round_ms is None:
        round_ms = topology.round_ms
    first_delay_rounds, nearest_source = 0, False
    if isinstance(factory, (RadiusFactory, HybridFactory)):
        # Radius's ScheduleNext discipline: first request after T0, to
        # the nearest source by the monitor metric.
        first_delay_rounds = ms_to_rounds(
            factory.params.radius_first_delay_ms, round_ms
        )
        nearest_source = True
    metric_kind = (
        factory.metric if isinstance(factory, RadiusFactory) else METRIC_LATENCY
    )
    evaluator: EagerEvaluator
    if isinstance(factory, FlatFactory):
        evaluator = FlatEvaluator(factory.probability)
    elif isinstance(factory, TtlFactory):
        evaluator = TtlEvaluator(factory.eager_rounds)
    elif isinstance(factory, RadiusFactory):
        evaluator = RadiusEvaluator(topology, metric_kind, factory.params.radius_ms)
    elif isinstance(factory, RankedFactory):
        evaluator = RankedEvaluator(
            topology.best_mask(factory.params.ranked_fraction)
        )
    elif isinstance(factory, HybridFactory):
        params = factory.params
        evaluator = HybridEvaluator(
            topology.best_mask(params.ranked_fraction),
            topology,
            metric_kind,
            params.hybrid_radius_ms,
            params.hybrid_eager_rounds,
        )
    else:
        raise UnsupportedStrategyError(
            f"the vector backend cannot evaluate {type(factory).__name__}; "
            "supported factories: Flat, Ttl, Radius (oracle), Ranked (oracle), "
            "Hybrid (oracle)"
        )
    return CompiledStrategy(
        evaluator=evaluator,
        first_delay_rounds=first_delay_rounds,
        retry_rounds=max(3, ms_to_rounds(retry_period_ms, round_ms)),
        nearest_source=nearest_source,
        metric_kind=metric_kind,
    )
