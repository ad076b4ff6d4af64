"""Emergent-structure concentration metrics.

The paper visualizes emergent structure by selecting "the top 5%
connections with highest throughput" (Fig. 4) and quantifies it by the
share of all payload those connections carry: ~7% for eager push (no
structure: traffic even across connections), ~37% for Radius, ~30% for
Ranked; under full noise it converges back to 5% (Fig. 6c).  The same
computation over *nodes* quantifies hub emergence.
"""

from __future__ import annotations

import math
from typing import Any, Mapping


def _top_share(counts: Mapping[Any, int], fraction: float = 0.05) -> float:
    """Share of total payload carried by the top ``fraction`` of used
    keys -- connections for :func:`link_concentration`, transmitting
    nodes for :func:`node_concentration` (hub emergence, Fig. 4c's node
    circles).

    A perfectly even spread returns ``fraction``; values well above it
    indicate structure.  Keys that carried nothing do not count as
    "used", matching how the paper selects among observed connections.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction out of range: {fraction}")
    values = sorted(counts.values(), reverse=True)
    total = sum(values)
    if total == 0:
        return 0.0
    used = len(values) - values.count(0)
    top_n = max(1, math.ceil(used * fraction))
    return sum(values[:top_n]) / total


#: Both public names bind the one body (a wrapper would add a call to
#: every run summary, which ``tests/test_call_budget.py`` pins).
link_concentration = _top_share
node_concentration = _top_share
