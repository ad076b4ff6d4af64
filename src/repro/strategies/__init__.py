"""Transmission strategies (paper sections 4.1, 4.3 and 6.4).

Each strategy answers ``Eager?`` and shapes the lazy-request schedule:

- :class:`~repro.strategies.flat.FlatStrategy` -- eager with fixed
  probability ``p``; the latency/bandwidth baseline of Fig. 5(a).
  ``PureEagerStrategy`` (p=1) and ``PureLazyStrategy`` (p=0) are the
  classic protocols as degenerate cases.
- :class:`~repro.strategies.ttl.TtlStrategy` -- eager while the round
  number is below ``u`` (early rounds rarely hit duplicates).
- :class:`~repro.strategies.radius.RadiusStrategy` -- eager to peers
  within metric radius ``rho``; emerges a mesh (Fig. 4b).
- :class:`~repro.strategies.ranked.RankedStrategy` -- eager whenever a
  "best node" is involved; emerges hubs-and-spokes (Fig. 4c).
- :class:`~repro.strategies.hybrid.HybridStrategy` -- the section 6.4
  combination of TTL, Radius and Ranked.
- :class:`~repro.strategies.noise.NoisyStrategy` -- the section 4.3
  noise wrapper that blurs any strategy's decisions while preserving its
  overall eager/lazy ratio.
- :class:`~repro.strategies.adaptive.AdaptiveRadiusStrategy` -- a
  self-tuning radius (the adaptive-protocols extension the conclusion
  points to).
"""

from repro.strategies.adaptive import AdaptiveRadiusStrategy
from repro.strategies.base import BaseStrategy
from repro.strategies.flat import FlatStrategy, PureEagerStrategy, PureLazyStrategy
from repro.strategies.hybrid import HybridStrategy
from repro.strategies.noise import NoisyStrategy
from repro.strategies.radius import RadiusStrategy
from repro.strategies.ranked import RankedStrategy
from repro.strategies.ttl import TtlStrategy

__all__ = [
    "AdaptiveRadiusStrategy",
    "BaseStrategy",
    "FlatStrategy",
    "PureEagerStrategy",
    "PureLazyStrategy",
    "TtlStrategy",
    "RadiusStrategy",
    "RankedStrategy",
    "HybridStrategy",
    "NoisyStrategy",
]
