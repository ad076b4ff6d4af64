"""Gossip configuration and the dimensioning math behind it.

The paper configures "gossip fanout of 11 and overlay fanout of 15.
With 200 nodes, these correspond to a probability 0.995 of atomic
delivery with 1% messages dropped, and a probability of 0.999 of
connectedness when 15% of nodes fail" (section 5.2), citing Eugster et
al. [6].  The functions below encode those standard epidemic estimates
so the numbers can be regenerated and the configuration validated in
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def atomic_delivery_probability(
    nodes: int, fanout: int, loss_probability: float = 0.0
) -> float:
    """Estimate of P(every node delivers a given message).

    Standard branching-process approximation for push gossip run to
    saturation: with effective fanout ``f_eff = fanout * (1 - loss)``,
    each node independently misses the epidemic with probability
    ``exp(-f_eff)``, so atomicity holds with probability
    ``(1 - exp(-f_eff)) ** nodes``.

    >>> round(atomic_delivery_probability(200, 11, 0.01), 3)
    0.996
    """
    if nodes < 1 or fanout < 1:
        raise ValueError("nodes and fanout must be positive")
    if not 0 <= loss_probability < 1:
        raise ValueError("loss_probability must be in [0, 1)")
    effective = fanout * (1.0 - loss_probability)
    miss = math.exp(-effective)
    return (1.0 - miss) ** nodes


def overlay_connectivity_probability(
    nodes: int, degree: int, failed_fraction: float = 0.0
) -> float:
    """Estimate of P(the overlay stays connected) under node failures.

    With each surviving node keeping ``degree * (1 - failed_fraction)``
    live out-links chosen at random, isolation of any given node has
    probability ``exp(-d_eff)`` and connectivity is dominated by the
    no-isolated-node event.

    >>> round(overlay_connectivity_probability(200, 15, 0.15), 3)
    0.999
    """
    if nodes < 1 or degree < 1:
        raise ValueError("nodes and degree must be positive")
    if not 0 <= failed_fraction < 1:
        raise ValueError("failed_fraction must be in [0, 1)")
    effective = degree * (1.0 - failed_fraction)
    isolated = math.exp(-effective)
    return (1.0 - isolated) ** nodes


def recommended_rounds(nodes: int, fanout: int, margin: int = 3) -> int:
    """Rounds ``t`` needed for saturation plus a safety margin.

    An epidemic with fanout ``f`` multiplies its reach ~``f``-fold per
    round, so ``ceil(log_f(n))`` rounds reach everyone in expectation;
    the margin absorbs duplicate collisions in the final rounds.
    """
    if nodes < 2:
        return 1
    if fanout < 2:
        raise ValueError("fanout must be >= 2")
    return math.ceil(math.log(nodes) / math.log(fanout)) + margin


@dataclass(frozen=True)
class GossipConfig:
    """Parameters of the Fig. 2 protocol (paper defaults).

    The gossip logic is payload-agnostic: the payload's wire size is
    :attr:`repro.scheduler.interfaces.SchedulerConfig.payload_bytes`.
    """

    fanout: int = 11
    rounds: int = 6
    known_ids_capacity: int = 4096

    def __post_init__(self) -> None:
        if self.fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {self.fanout}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")

    @classmethod
    def for_population(cls, nodes: int, fanout: int = 11, **kwargs) -> "GossipConfig":
        """Config with rounds sized for ``nodes`` via :func:`recommended_rounds`."""
        return cls(fanout=fanout, rounds=recommended_rounds(nodes, fanout), **kwargs)
