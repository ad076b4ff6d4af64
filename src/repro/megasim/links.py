"""Emergent-structure metrics from vectorized link counts.

The paper quantifies emergent structure by the payload share of the top
5% of used connections (Fig. 4) -- ~7% for eager push (no structure),
~37% for Radius, ~30% for Ranked.  The event-kernel path computes that
from recorder dicts; at 10^5-10^6 nodes the vector tier stores each
message's payload links as two flat arrays instead
(:class:`~repro.megasim.rounds.MessageOutcome` ``link_keys`` /
``link_sends``), and :func:`structure_metrics` reduces them without
ever building a per-link Python dict or a run-wide distinct-key table:

- every send becomes one ``src * n + dst`` entry of a single int64
  buffer, sorted in place;
- equal neighbours in that buffer are repeat sends of one link: their
  count gives the used links, and their runs give the count histogram
  (a link sent ``c`` times leaves ``c - 1`` equal-neighbour positions);
- the top share is an exact integer walk of that histogram from the
  highest count down -- the same ``ceil`` cutoff and integer sums as
  :func:`repro.metrics.structure.link_concentration`, so the float is
  bit-equal to the dict implementation on the same links;
- the buffer, floor-divided by ``n`` in place, holds the senders in
  order, and its distinct values give the effective degree: distinct
  payload-carrying directed links per distinct payload-sending node (an
  eager run over degree-``d`` views approaches ``d``; an emergent
  spanning structure approaches 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.megasim.state import run_lengths

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.megasim.rounds import MessageOutcome


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


def structure_metrics(
    outcomes: "Sequence[MessageOutcome]",
    n: int,
    fraction: float = 0.05,
) -> Optional[StructureMetrics]:
    """The run-level :class:`StructureMetrics` of ``outcomes``' payload
    links, or ``None`` when there are no outcomes or link tracking was
    off for any of them (mixing tracked and untracked messages would
    silently under-count).

    Peak memory is the sorted send buffer (8 bytes per send), one byte
    per send, and about 9 bytes per repeat send.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction out of range: {fraction}")
    tables: List[Tuple[NDArray[np.int64], NDArray[np.int64]]] = []
    for outcome in outcomes:
        if outcome.link_keys is None or outcome.link_sends is None:
            return None
        tables.append((outcome.link_keys, outcome.link_sends))
    if not tables:
        return None
    sends = _sorted_sends(tables)
    total = int(sends.shape[0])
    # ``equal[i]``: send i + 1 repeats send i's link.
    equal = np.empty(max(total - 1, 0), dtype=np.bool_)
    np.equal(sends[1:], sends[:-1], out=equal)
    histogram = _links_by_count(equal, total)
    used_links = sum(links for _, links in histogram)
    # Sorted keys floor-divide to sorted senders.
    np.floor_divide(sends, n, out=sends)
    np.equal(sends[1:], sends[:-1], out=equal)
    sending_nodes = total - int(np.count_nonzero(equal))
    return StructureMetrics(
        top_link_share=_top_share(histogram, used_links, total, fraction),
        top_fraction=fraction,
        used_links=used_links,
        sending_nodes=sending_nodes,
        effective_degree=(
            used_links / sending_nodes if sending_nodes else 0.0
        ),
    )


def _sorted_sends(
    tables: List[Tuple[NDArray[np.int64], NDArray[np.int64]]],
) -> NDArray[np.int64]:
    """Every send's link key, ascending: each table's keys, a key sent
    ``c`` times repeated ``c`` times."""
    sends = np.empty(sum(int(counts.sum()) for _, counts in tables), np.int64)
    filled = 0
    for keys, counts in tables:
        if not (counts == 1).all():
            keys = np.repeat(keys, counts)
        sends[filled: filled + keys.shape[0]] = keys
        filled += keys.shape[0]
    sends.sort()
    return sends


def _links_by_count(
    equal: NDArray[np.bool_], total: int
) -> List[Tuple[int, int]]:
    """``(count, links)`` for every count that some link was sent, the
    highest first, from the equal-neighbour flags of ``total`` sorted
    sends.

    A link sent ``c > 1`` times leaves a run of ``c - 1`` consecutive
    flagged positions, which starts where the position before it is not
    flagged; every unflagged send beyond those runs' links is a link
    sent once.
    """
    repeats = np.flatnonzero(equal)
    repeated = int(repeats.shape[0])
    repeats -= 1
    # Position -1 reads the last flag; the first repeat starts a run anyway.
    starts = equal[repeats]
    del repeats
    np.logical_not(starts, out=starts)
    starts[:1] = True
    first = np.flatnonzero(starts)
    del starts
    # ``by_run[r]``: links sent ``r + 1`` times.
    by_run = np.bincount(run_lengths(first, repeated))
    runs = np.flatnonzero(by_run)[::-1]
    histogram = list(zip((runs + 1).tolist(), by_run[runs].tolist()))
    sent_once = total - repeated - int(first.shape[0])
    histogram.append((1, sent_once))
    return histogram


def _top_share(
    histogram: List[Tuple[int, int]],
    used_links: int,
    total: int,
    fraction: float,
) -> float:
    """Payload share of the top ``max(1, ceil(used_links * fraction))``
    links, taken from ``histogram``'s highest count down; the two exact
    integer sums divide as in
    :func:`repro.metrics.structure.link_concentration`."""
    if total == 0:
        return 0.0
    remaining = max(1, math.ceil(used_links * fraction))
    top = 0
    for count, links in histogram:
        taken = min(remaining, links)
        top += taken * count
        remaining -= taken
        if remaining == 0:
            break
    return top / total
