"""Lossy links: the one impairment besides crash-stop silencing.

The paper's failure model is crash-stop ("silencing them with firewall
rules", section 6.3; see :mod:`repro.failures.injection`).  A
:class:`GrayFailurePlan` adds per-directed-link Bernoulli loss: a
fraction of directed links each drop packets with a fixed probability,
applied through :meth:`~repro.network.fabric.NetworkFabric.set_link`.
Directed sampling makes the impairment asymmetric unless the reverse
direction happens to be sampled too; ``lossy_link_fraction=1.0`` is
uniform loss on every link (``repro run --loss``).

The selection draws from the ``failures.gray`` stream, so a given seed
always impairs the same links, and enabling a plan never perturbs any
other component's randomness.  The slot kernel compiles the same plan
(:func:`repro.megasim.adapter.compile_faults`) from the same draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Tuple

from repro.network.fabric import LinkProfile
from repro.sim.rng import RandomStreams, sample

if TYPE_CHECKING:
    from repro.runtime.cluster import Cluster


@dataclass(frozen=True)
class GrayFailurePlan:
    """Which directed links are lossy, and how lossy.

    The fraction defaults to 0, so the empty plan is a no-op; the fault
    model is strictly opt-in.
    """

    lossy_link_fraction: float = 0.0
    link_loss_probability: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.lossy_link_fraction <= 1.0:
            raise ValueError(
                f"lossy_link_fraction out of range: {self.lossy_link_fraction}"
            )
        if not 0.0 <= self.link_loss_probability <= 1.0:
            raise ValueError(
                f"link_loss_probability out of range: {self.link_loss_probability}"
            )


@dataclass
class AppliedGrayFailures:
    """What a plan actually impaired (diagnostics and assertions)."""

    lossy_links: List[Tuple[int, int]] = field(default_factory=list)


def gray_targets(
    plan: GrayFailurePlan, size: int, streams: RandomStreams
) -> AppliedGrayFailures:
    """The directed links ``plan`` impairs in a ``size``-node population.

    Draws from the ``failures.gray`` stream of ``streams``.  Both kernels
    call this, so a seed impairs the same links on either.
    """
    rng = streams.stream("failures.gray")
    population = range(size)
    applied = AppliedGrayFailures()
    if plan.lossy_link_fraction > 0.0:
        links = [(a, b) for a in population for b in population if a != b]
        count = int(round(plan.lossy_link_fraction * len(links)))
        if count:
            applied.lossy_links = sorted(sample(rng, links, count))
    return applied


class GrayFailureInjector:
    """Applies :class:`GrayFailurePlan` to a cluster's fabric."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster

    def apply(self, plan: GrayFailurePlan) -> AppliedGrayFailures:
        fabric = self.cluster.fabric
        applied = gray_targets(plan, self.cluster.size, self.cluster.sim.rng)
        profile = LinkProfile(loss_probability=plan.link_loss_probability)
        for src, dst in applied.lossy_links:
            fabric.set_link(src, dst, profile)
        return applied
