"""The Payload Scheduler layer -- the paper's core contribution.

Inserted *below* the gossip protocol and *above* point-to-point
transport (Fig. 1), the scheduler decides when message payload actually
travels.  Its three components map one-to-one onto the paper's
architecture:

- :class:`~repro.scheduler.lazy_point_to_point.LazyPointToPoint` -- the
  Lazy Point-to-Point module (Fig. 3): intercepts ``L-Send``; either
  transmits ``MSG(i, d, r)`` eagerly or caches the payload and sends an
  ``IHAVE(i)`` advertisement, answering later ``IWANT(i)`` requests.
- :class:`~repro.scheduler.interfaces.TransmissionStrategy` -- the
  pluggable policy deciding ``Eager?`` and the ``ScheduleNext`` request
  timing (implementations in :mod:`repro.strategies`, which read the
  paper's ``Metric(p)`` straight from the model file).
"""

from repro.scheduler.cache import PayloadCache
from repro.scheduler.interfaces import SchedulerConfig, TransmissionStrategy
from repro.scheduler.lazy_point_to_point import (
    MSG,
    IHAVE,
    IWANT,
    LazyPointToPoint,
)
from repro.scheduler.requests import RequestQueue

__all__ = [
    "PayloadCache",
    "SchedulerConfig",
    "TransmissionStrategy",
    "LazyPointToPoint",
    "RequestQueue",
    "MSG",
    "IHAVE",
    "IWANT",
]
