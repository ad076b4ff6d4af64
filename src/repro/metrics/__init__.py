"""Measurement and analysis (paper sections 5.3-5.4).

The paper logs every multicast, delivery and per-link payload
transmission, then post-processes into latency, payload-per-message and
structure-concentration numbers with 95% confidence discipline.  Here:

- :class:`~repro.metrics.recorder.MetricsRecorder` observes the fabric
  (packets) and the application (multicasts/deliveries); recording can
  be gated so warm-up traffic is excluded, as on the testbed.
- :mod:`repro.metrics.analysis` turns a recorder into a
  :class:`~repro.metrics.analysis.RunSummary` with the exact quantities
  the figures plot, including per-node-class splits ("ranked (low)").
- :mod:`repro.metrics.structure` computes emergent-structure
  concentration: the share of payload carried by the top-k% connections
  (Fig. 4 and Fig. 6c).
- :mod:`repro.metrics.confidence` implements the 95% confidence
  intervals used to claim differences are relevant.
"""

from repro.metrics.analysis import (
    RunSummary,
    class_payload_rates,
    class_received_rates,
    summarize,
)
from repro.metrics.confidence import mean_confidence_interval
from repro.metrics.dissemination import DisseminationTracker, ObserverChain
from repro.metrics.export import (
    save_structure_json,
    structure_to_dict,
    structure_to_dot,
)
from repro.metrics.recorder import MetricsRecorder
from repro.metrics.structure import link_concentration, node_concentration
from repro.metrics.timeline import (
    completion_curve,
    completion_times,
    throughput_over_time,
)

__all__ = [
    "DisseminationTracker",
    "ObserverChain",
    "structure_to_dict",
    "structure_to_dot",
    "save_structure_json",
    "completion_times",
    "completion_curve",
    "throughput_over_time",
    "MetricsRecorder",
    "RunSummary",
    "summarize",
    "class_payload_rates",
    "class_received_rates",
    "link_concentration",
    "node_concentration",
    "mean_confidence_interval",
]
