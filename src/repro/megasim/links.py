"""Emergent-structure metrics from vectorized link counts.

The paper quantifies emergent structure by the payload share of the top
5% of used connections (Fig. 4) -- ~7% for eager push (no structure),
~37% for Radius, ~30% for Ranked.  The event-kernel path computes that
from recorder dicts; at 10^5-10^6 nodes the vector tier stores each
message's payload links as two flat arrays instead
(:class:`~repro.megasim.rounds.MessageOutcome` ``link_keys`` /
``link_sends``), and this module reduces them without ever building a
per-link Python dict:

- :func:`merge_link_arrays` folds all messages' links into one sorted
  distinct-key table with summed counts;
- :func:`top_share` is the array twin of
  :func:`repro.metrics.structure.link_concentration` -- same integer
  sums, same ``ceil`` cutoff, so the resulting float is bit-equal to
  the dict implementation on the same links;
- :func:`effective_degree` reports how concentrated the *used* overlay
  is: distinct payload-carrying directed links per distinct
  payload-sending node (an eager run over degree-``d`` views approaches
  ``d``; an emergent spanning structure approaches 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.megasim.state import run_starts

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.megasim.rounds import MessageOutcome

#: Sorted distinct link keys and their aligned payload counts.
LinkTable = Tuple[NDArray[np.int64], NDArray[np.int64]]


@dataclass(frozen=True)
class StructureMetrics:
    """Emergent-structure summary of one run's payload-link usage."""

    #: Payload share of the top ``fraction`` of used connections
    #: (:func:`repro.metrics.structure.link_concentration` semantics).
    top_link_share: float
    #: The fraction the share was computed over (default 5%, Fig. 4).
    top_fraction: float
    #: Distinct directed links that carried at least one payload packet.
    used_links: int
    #: Distinct nodes that sent at least one payload packet.
    sending_nodes: int
    #: ``used_links / sending_nodes``: mean payload out-degree of the
    #: emergent overlay.
    effective_degree: float


def merge_link_arrays(
    outcomes: "Sequence[MessageOutcome]",
) -> Optional[LinkTable]:
    """All messages' payload links as one ``(keys, counts)`` table.

    Keys are the kernel's ``src * n + dst`` encoding, sorted distinct;
    counts are summed across messages.  Returns ``None`` when any
    outcome was run without link tracking (mixing tracked and untracked
    messages would silently under-count).
    """
    keys_per_message: List[NDArray[np.int64]] = []
    counts_per_message: List[NDArray[np.int64]] = []
    for outcome in outcomes:
        if outcome.link_keys is None or outcome.link_sends is None:
            return None
        keys_per_message.append(outcome.link_keys)
        counts_per_message.append(outcome.link_sends)
    if not keys_per_message:
        return None
    keys = np.concatenate(keys_per_message)
    # Exact integer segment sums: order the counts by key and reduce each
    # run of equal keys (the order of ties cannot matter to a sum).
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = run_starts(keys)
    counts = np.concatenate(counts_per_message)[order]
    return keys[starts], np.add.reduceat(counts, starts)


def top_share(counts: NDArray[np.int64], fraction: float = 0.05) -> float:
    """Share of total payload on the top ``fraction`` of used links.

    Bit-equal to :func:`repro.metrics.structure.link_concentration` on
    the dict form of the same links: both sort the integer counts
    descending, cut at ``max(1, ceil(len * fraction))``, and divide the
    two exact integer sums.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction out of range: {fraction}")
    total = int(counts.sum())
    if total == 0:
        return 0.0
    ordered = np.sort(counts, kind="stable")[::-1]
    top_n = max(1, math.ceil(ordered.shape[0] * fraction))
    return int(ordered[:top_n].sum()) / total


def effective_degree(
    keys: NDArray[np.int64], n: int
) -> Tuple[int, int, float]:
    """``(used_links, sending_nodes, links / senders)`` for a key table.

    ``keys`` must be sorted distinct (what :func:`merge_link_arrays`
    returns); senders decode as ``key // n``, so they are sorted too.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    used_links = int(keys.shape[0])
    senders = int(run_starts(keys // n).shape[0])
    degree = (used_links / senders) if senders else 0.0
    return used_links, senders, degree


def structure_metrics(
    outcomes: "Sequence[MessageOutcome]",
    n: int,
    fraction: float = 0.05,
    merged_links: Optional[LinkTable] = None,
) -> Optional[StructureMetrics]:
    """The run-level :class:`StructureMetrics`, or ``None`` when link
    tracking was off for any message.  ``merged_links`` hands in an
    already computed :func:`merge_link_arrays` table of ``outcomes``."""
    if merged_links is None:
        merged_links = merge_link_arrays(outcomes)
    if merged_links is None:
        return None
    keys, counts = merged_links
    used_links, sending_nodes, degree = effective_degree(keys, n)
    return StructureMetrics(
        top_link_share=top_share(counts, fraction),
        top_fraction=fraction,
        used_links=used_links,
        sending_nodes=sending_nodes,
        effective_degree=degree,
    )
