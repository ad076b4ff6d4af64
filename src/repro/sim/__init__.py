"""Discrete-event simulation kernel.

This package is the substrate that replaces the paper's ModelNet testbed
(see DESIGN.md section 2).  It provides:

- :class:`~repro.sim.engine.Simulator` -- the event loop with a simulated
  clock measured in milliseconds, over a cancellable binary-heap event
  queue with deterministic FIFO tie-breaking.
- :class:`~repro.sim.events.Event` -- a scheduled callback, doubling as
  its own cancellation handle.
- :class:`~repro.sim.rng.RandomStreams` -- named, independently seeded
  random substreams so that experiments are reproducible and components
  do not perturb each other's randomness.
- :class:`~repro.sim.timers.PeriodicTimer` -- a convenience for repeated
  actions such as overlay shuffles and retransmission sweeps.

All simulated time throughout the repository is expressed in floating point
**milliseconds**, matching the units the paper reports (latencies of
200-500 ms, retransmission period of 400 ms).
"""

from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.rng import RandomStreams
from repro.sim.timers import PeriodicTimer

__all__ = [
    "Simulator",
    "Event",
    "RandomStreams",
    "PeriodicTimer",
]
