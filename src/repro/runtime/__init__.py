"""Node assembly and cluster construction.

Wires the layered architecture of the paper's Fig. 1 into runnable
stacks: transport endpoint at the bottom, the Payload Scheduler above
it, the eager push gossip protocol on top, with membership on the side
and each node's Transmission Strategy reading its row of the model file.
:class:`~repro.runtime.cluster.Cluster` builds ``n`` such stacks over
one simulated fabric and is the main entry point used by examples, tests
and the experiment harness.
"""

from repro.runtime.node import ProtocolNode, StrategyContext
from repro.runtime.cluster import Cluster, ClusterConfig

__all__ = ["ProtocolNode", "StrategyContext", "Cluster", "ClusterConfig"]
