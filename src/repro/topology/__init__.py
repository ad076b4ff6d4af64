"""Network topology substrate (Inet-3.0 / ModelNet model analogue).

The paper evaluates on a 3037-node Internet-like topology generated by
Inet-3.0 using a transit-stub model, with link latencies assigned from
pseudo-geographical distance and client nodes attached to distinct stub
routers over 1 ms access links (paper section 5.1).  This package
reproduces that model:

- :mod:`repro.topology.geometry` -- points on the plane, distances.
- :mod:`repro.topology.graph` -- the router-level topology container.
- :mod:`repro.topology.inet` -- the transit-stub generator, calibrated so
  its client-to-client statistics match the ones the paper reports
  (average hop distance approx. 5.5, mean end-to-end latency approx.
  50 ms with half of all pairs between 39 and 60 ms).
- :mod:`repro.topology.routing` -- deterministic shortest-path routing and
  the client latency matrix consumed by the network fabric.
- :mod:`repro.topology.cache` -- memoized model construction (an
  in-process LRU); the experiment layer builds every model through it.
- :mod:`repro.topology.simple` -- small analytic topologies for tests.
- :mod:`repro.topology.stats` -- the section 5.1 statistics table.
"""

from repro.topology.cache import (
    ModelKey,
    TopologyCache,
    cached_model,
    resolve_model,
    shared_cache,
)
from repro.topology.geometry import Point, euclidean
from repro.topology.graph import NodeKind, RouterTopology
from repro.topology.inet import InetParameters, generate_inet
from repro.topology.routing import ClientNetworkModel, shortest_paths
from repro.topology.simple import (
    complete_topology,
    grid_topology,
    ring_topology,
    star_topology,
)
from repro.topology.stats import TopologyStatistics, compute_statistics

__all__ = [
    "Point",
    "euclidean",
    "NodeKind",
    "RouterTopology",
    "InetParameters",
    "generate_inet",
    "ClientNetworkModel",
    "shortest_paths",
    "ModelKey",
    "TopologyCache",
    "cached_model",
    "resolve_model",
    "shared_cache",
    "complete_topology",
    "grid_topology",
    "ring_topology",
    "star_topology",
    "TopologyStatistics",
    "compute_statistics",
]
