"""Named strategy factories with the paper's parameters.

Factories are small frozen dataclasses that carry scenario parameters
and build one strategy per node from its
:class:`~repro.runtime.node.StrategyContext` when called.  Being
module-level classes (rather than closures) they pickle, so an
:class:`~repro.experiments.runner.ExperimentSpec` can cross a process
boundary into the parallel experiment engine
(:mod:`repro.experiments.parallel`).  The ``*_factory`` constructors
remain the public way to build them.  Every environment-aware factory
reads the model file, the paper's evaluation mode "to separate the
performance of the proposed strategy from the performance of the
monitor" (section 4.3): it hands the strategy its node's latency (or
distance) row and the model's best-node set.  :class:`NoisyFactory` is
how approximate knowledge enters (Fig. 6).

Noise calibration: the wrapper of section 4.3 needs ``c`` equal to the
wrapped strategy's average eager rate so traffic volume is preserved;
:func:`radius_calibration` and :func:`ranked_calibration` compute it
exactly from the model, as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.runtime.node import StrategyContext, StrategyFactory
from repro.strategies.flat import FlatStrategy
from repro.strategies.hybrid import HybridStrategy
from repro.strategies.noise import NoisyStrategy
from repro.strategies.radius import RadiusStrategy
from repro.strategies.ranked import RankedStrategy
from repro.strategies.ttl import TtlStrategy
from repro.topology.routing import ClientNetworkModel


@dataclass(frozen=True)
class ScenarioParams:
    """Environment-aware strategy parameters.

    ``radius_ms`` -- the Radius strategy's one-way latency radius; with
    the paper's model (mean latency ~50 ms) a 30 ms radius makes roughly
    a fifth of all pairs "close".  ``radius_first_delay_ms`` is ``T0``,
    the in-radius latency estimate delaying the first IWANT.
    ``ranked_fraction`` -- hub share: 20%, the split the paper reports in
    Fig. 5(c).  Hybrid runs a tighter radius that shrinks after
    ``hybrid_eager_rounds``.  A field out of range raises ``ValueError``
    naming it.
    """

    radius_ms: float = 30.0
    radius_first_delay_ms: float = 60.0
    ranked_fraction: float = 0.2
    hybrid_radius_ms: float = 30.0
    hybrid_eager_rounds: int = 2

    def __post_init__(self) -> None:
        for name in ("radius_ms", "hybrid_radius_ms"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("radius_first_delay_ms", "hybrid_eager_rounds"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 < self.ranked_fraction <= 1.0:
            raise ValueError(
                f"ranked_fraction must be in (0, 1], got {self.ranked_fraction}"
            )


DEFAULT_PARAMS = ScenarioParams()


@dataclass(frozen=True)
class BestLowClasses:
    """Node-classes callable splitting best hubs from regular nodes.

    Feeds the "ranked (low)" / "combined (low)" series: per-class payload
    contribution and latency.  Picklable, unlike a closure.
    """

    fraction: float = DEFAULT_PARAMS.ranked_fraction

    def __call__(self, model: ClientNetworkModel) -> Dict[str, List[int]]:
        best = model.best_nodes(self.fraction)
        low = [n for n in range(model.size) if n not in best]
        return {"best": sorted(best), "low": low}


def best_low_classes(
    fraction: float = DEFAULT_PARAMS.ranked_fraction,
) -> Callable[[ClientNetworkModel], Dict[str, List[int]]]:
    """Node-classes function splitting best hubs from regular nodes."""
    return BestLowClasses(fraction)


# -- factories ---------------------------------------------------------------


@dataclass(frozen=True)
class FlatFactory:
    """Flat(p): the latency/bandwidth baseline."""

    probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )

    def __call__(self, ctx: StrategyContext) -> FlatStrategy:
        return FlatStrategy(self.probability, ctx.rng, ctx.retry_period_ms)


def flat_factory(probability: float) -> StrategyFactory:
    """Flat(p): the latency/bandwidth baseline."""
    return FlatFactory(probability)


@dataclass(frozen=True)
class TtlFactory:
    """TTL(u): eager during the first rounds."""

    eager_rounds: int

    def __post_init__(self) -> None:
        if self.eager_rounds < 0:
            raise ValueError(f"eager_rounds must be >= 0, got {self.eager_rounds}")

    def __call__(self, ctx: StrategyContext) -> TtlStrategy:
        return TtlStrategy(self.eager_rounds, ctx.retry_period_ms)


def ttl_factory(eager_rounds: int) -> StrategyFactory:
    """TTL(u): eager during the first rounds."""
    return TtlFactory(eager_rounds)


@dataclass(frozen=True)
class RadiusFactory:
    """Radius(rho) over the node's model-file row.

    ``metric`` selects the row: ``"latency"`` (performance runs; the
    model's own row, shared) or ``"distance"`` (the pseudo-geographic
    demonstration of Fig. 4, where the radius is interpreted in plane
    units; built once per node).
    """

    params: ScenarioParams = DEFAULT_PARAMS
    metric: str = "latency"

    def __post_init__(self) -> None:
        if self.metric not in ("latency", "distance"):
            raise ValueError(f"unknown metric {self.metric!r}")

    def __call__(self, ctx: StrategyContext) -> RadiusStrategy:
        model, node = ctx.model, ctx.node
        if self.metric == "latency":
            row = model.latency_ms[node]
        else:
            row = [model.distance(node, peer) for peer in range(model.size)]
        return RadiusStrategy(
            row,
            radius=self.params.radius_ms,
            first_request_delay_ms=self.params.radius_first_delay_ms,
            retry_period_ms=ctx.retry_period_ms,
        )


def radius_factory(
    params: ScenarioParams = DEFAULT_PARAMS, metric: str = "latency"
) -> StrategyFactory:
    """Radius(rho) over the node's model-file row."""
    return RadiusFactory(params, metric)


@dataclass(frozen=True)
class RankedFactory:
    """Ranked with the oracle (model-file) best-node set."""

    params: ScenarioParams = DEFAULT_PARAMS

    def __call__(self, ctx: StrategyContext) -> RankedStrategy:
        best = ctx.model.best_nodes(self.params.ranked_fraction)
        return RankedStrategy(ctx.node, best, ctx.retry_period_ms)


def ranked_factory(params: ScenarioParams = DEFAULT_PARAMS) -> StrategyFactory:
    """Ranked with the oracle (model-file) best-node set."""
    return RankedFactory(params)


@dataclass(frozen=True)
class HybridFactory:
    """The section 6.4 combined strategy (oracle-driven)."""

    params: ScenarioParams = DEFAULT_PARAMS

    def __call__(self, ctx: StrategyContext) -> HybridStrategy:
        model = ctx.model
        return HybridStrategy(
            node=ctx.node,
            best=model.best_nodes(self.params.ranked_fraction),
            row=model.latency_ms[ctx.node],
            radius=self.params.hybrid_radius_ms,
            eager_rounds=self.params.hybrid_eager_rounds,
            first_request_delay_ms=self.params.radius_first_delay_ms,
            retry_period_ms=ctx.retry_period_ms,
        )


def hybrid_factory(params: ScenarioParams = DEFAULT_PARAMS) -> StrategyFactory:
    """The section 6.4 combined strategy (oracle-driven)."""
    return HybridFactory(params)


@dataclass(frozen=True)
class NoisyFactory:
    """Wrap any factory with the section 4.3 noise model.

    The wrapped ``inner`` factory must itself be picklable for specs
    using this wrapper to cross into pool workers.
    """

    inner: StrategyFactory
    noise: float
    calibration: Optional[float] = None

    def __call__(self, ctx: StrategyContext) -> NoisyStrategy:
        return NoisyStrategy(self.inner(ctx), self.noise, ctx.rng, self.calibration)


def noisy_factory(
    inner: StrategyFactory, noise: float, calibration: Optional[float] = None
) -> StrategyFactory:
    """Wrap any factory with the section 4.3 noise model."""
    return NoisyFactory(inner, noise, calibration)


# -- noise calibration ------------------------------------------------------------


def radius_calibration(
    model: ClientNetworkModel, radius_ms: float = DEFAULT_PARAMS.radius_ms
) -> float:
    """Exact average eager rate of Radius over ordered node pairs."""
    n = model.size
    if n < 2:
        return 0.0
    close = sum(
        1
        for i, row in enumerate(model.latency_ms)
        for j, latency in enumerate(row)
        if i != j and latency < radius_ms
    )
    return close / (n * (n - 1))


def ranked_calibration(
    model: ClientNetworkModel, fraction: float = DEFAULT_PARAMS.ranked_fraction
) -> float:
    """Exact average eager rate of Ranked: P(either endpoint is best)."""
    n = model.size
    if n < 2:
        return 0.0
    k = len(model.best_nodes(fraction))
    # Ordered pairs with neither endpoint best: (n-k)(n-k-1).
    return 1.0 - ((n - k) * (n - k - 1)) / (n * (n - 1))
