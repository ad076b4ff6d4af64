"""Vectorized struct-of-arrays simulation backend (the scale tier).

The event kernel (:mod:`repro.sim`) dispatches one Python callback per
packet, which tops out around 10^3 nodes per affordable run.  This
package trades per-event fidelity for whole-array dispatch: epidemic
dissemination advances in synchronous *slots* (one network latency per
slot) and every slot's sends, deliveries, advertisements and requests
are numpy operations over all nodes at once, which carries the same
protocol to 10^5-10^6 nodes.

Where the two backends agree -- and where they cannot -- is pinned by
the differential harness in ``tests/megasim/differential.py`` and
documented in DESIGN.md section 10.  Entry points:

- :func:`repro.megasim.runner.run_megasim` -- the library entry, and
  what ``repro run --backend vector`` calls at every population: over a
  :class:`~repro.megasim.adapter.DenseTopology` wrapping the routed Inet
  model up to ``DENSE_MODEL_LIMIT`` clients, over the synthetic plane
  above it
- :func:`repro.backends.megasim_spec` -- the one translation of an
  event-kernel ``ExperimentSpec`` into a :class:`MegasimSpec`

numpy is an *optional* dependency (the ``repro[vector]`` extra); the
core library and the event kernel never import it.
"""

from __future__ import annotations

try:
    import numpy  # noqa: F401
except ImportError as exc:  # pragma: no cover - exercised without numpy only
    raise ImportError(
        "repro.megasim is the vectorized scale tier and requires numpy, "
        "which is not installed.  Install the optional extra: "
        "pip install 'repro[vector]'"
    ) from exc

from repro.megasim.adapter import (
    DenseTopology,
    PlaneTopology,
    UniformTopology,
    VectorTopology,
    summary_from_outcomes,
)
from repro.megasim.rounds import MessageOutcome, disseminate
from repro.megasim.runner import MegasimResult, MegasimSpec, run_megasim
from repro.megasim.state import MessageState
from repro.megasim.strategies import CompiledStrategy, compile_strategy

__all__ = [
    "CompiledStrategy",
    "DenseTopology",
    "MegasimResult",
    "MegasimSpec",
    "MessageOutcome",
    "MessageState",
    "PlaneTopology",
    "UniformTopology",
    "VectorTopology",
    "compile_strategy",
    "disseminate",
    "run_megasim",
    "summary_from_outcomes",
]
