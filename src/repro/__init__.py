"""Reproduction of "Emergent Structure in Unstructured Epidemic
Multicast" (Carvalho, Pereira, Oliveira, Rodrigues -- DSN 2007).

Epidemic multicast with a pluggable payload scheduler: gossip stays
purely random (resilient, simple), while *when payloads travel* is
decided by a Transmission Strategy that reads the network model.
Latency- and rank-aware strategies make an efficient dissemination
structure emerge probabilistically -- no tree construction, no repair.

Top-level convenience re-exports cover the common workflow; see the
subpackages for the full surface:

- :mod:`repro.sim`, :mod:`repro.topology`, :mod:`repro.network`,
  :mod:`repro.membership` -- the simulated testbed;
- :mod:`repro.gossip`, :mod:`repro.scheduler`, :mod:`repro.strategies`
  -- the protocol stack;
- :mod:`repro.runtime`, :mod:`repro.metrics`, :mod:`repro.failures`,
  :mod:`repro.experiments` -- assembly and evaluation.
"""

from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.experiments.scenarios import (
    flat_factory,
    hybrid_factory,
    noisy_factory,
    radius_factory,
    ranked_factory,
    ttl_factory,
)
from repro.gossip.config import GossipConfig
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.scheduler.interfaces import SchedulerConfig
from repro.sim.engine import Simulator
from repro.topology.inet import InetParameters, generate_inet
from repro.topology.routing import ClientNetworkModel

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Simulator",
    "InetParameters",
    "generate_inet",
    "ClientNetworkModel",
    "GossipConfig",
    "SchedulerConfig",
    "Cluster",
    "ClusterConfig",
    "ExperimentSpec",
    "run_experiment",
    "flat_factory",
    "ttl_factory",
    "radius_factory",
    "ranked_factory",
    "hybrid_factory",
    "noisy_factory",
]
