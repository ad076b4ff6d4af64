"""Recurring-timer helper built on the simulator.

Several parts of the system tick periodically: the NeEM-style overlay
shuffles its partial view, the request scheduler sweeps pending lazy
requests every ``T`` ms (the paper's 400 ms retransmission period).
``PeriodicTimer`` packages the schedule/reschedule/cancel dance so those
components stay small.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.events import EventHandle


class PeriodicTimer:
    """Invoke a callback every ``period`` ms until stopped.

    Parameters
    ----------
    sim:
        Owning simulator.
    period:
        Interval between invocations, in simulated milliseconds.
    callback:
        Invoked as ``callback()`` on every tick.
    jitter:
        Optional callable returning a per-tick offset (ms) added to the
        period; used to de-synchronize node timers the way real
        deployments naturally do.  It may return negative values as long
        as ``period + jitter() > 0``.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], Any],
        jitter: Optional[Callable[[], float]] = None,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self._sim = sim
        self._period = period
        self._callback = callback
        self._jitter = jitter
        self._handle: Optional[EventHandle] = None
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    @property
    def period(self) -> float:
        return self._period

    def start(self, initial_delay: Optional[float] = None) -> None:
        """Begin ticking.  The first tick fires after ``initial_delay``
        (defaults to one full period)."""
        if self._running:
            return
        self._running = True
        delay = self._period if initial_delay is None else initial_delay
        self._handle = self._sim.schedule(delay, self._tick)

    def stop(self) -> None:
        """Stop ticking.  Safe to call repeatedly or from the callback."""
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _tick(self) -> None:
        if not self._running:
            return
        self._callback()
        if not self._running:
            # The callback stopped us; do not reschedule.
            return
        delay = self._period
        if self._jitter is not None:
            delay += self._jitter()
        if delay <= 0:
            raise ValueError(
                f"jittered period must stay positive, got {delay}"
            )
        self._handle = self._sim.schedule(delay, self._tick)
