"""Performance monitors (paper sections 4.2 and 4.3).

Implementations of the ``Metric(p)`` interface feeding the Transmission
Strategy, all read from knowledge the paper's evaluation takes "directly
from the model file" to "separate the performance of the proposed
strategy from the performance of the monitor" (section 4.3):

- :class:`~repro.monitors.oracle.OracleLatencyMonitor` /
  :class:`~repro.monitors.oracle.OracleDistanceMonitor` -- read the
  network model directly.
- :class:`~repro.monitors.ranking.OracleRanking` -- best-node selection
  for the Ranked strategy from global knowledge.
- :class:`~repro.monitors.static.StaticMetricMonitor` -- fixed metrics
  for tests.

Approximate knowledge is modelled by Fig. 6's noise wrapper
(:class:`~repro.strategies.noise.NoisyStrategy`), not by a measured
monitor.
"""

from repro.monitors.oracle import OracleDistanceMonitor, OracleLatencyMonitor
from repro.monitors.ranking import OracleRanking
from repro.monitors.static import StaticMetricMonitor

__all__ = [
    "OracleLatencyMonitor",
    "OracleDistanceMonitor",
    "OracleRanking",
    "StaticMetricMonitor",
]
