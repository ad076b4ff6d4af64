"""The discrete-event simulator.

A :class:`Simulator` owns the simulated clock and the event queue.  All
protocol components (transports, overlays, gossip nodes, schedulers,
monitors) interact with time exclusively through it, which is what lets
the same protocol code run unmodified across unit tests, property tests
and full experiment sweeps.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Sequence, Tuple, Type

from repro.sim.events import E, EventHandle, EventQueue
from repro.sim.rng import RandomStreams


class SimulationError(RuntimeError):
    """Raised for invalid interactions with the simulator."""


class Simulator:
    """A deterministic single-threaded discrete-event simulator.

    Parameters
    ----------
    seed:
        Root seed for :class:`~repro.sim.rng.RandomStreams`.  Every
        component should draw randomness from ``sim.rng.stream(name)``
        rather than the global :mod:`random` module so results are
        reproducible and independent across components.

    Example
    -------
    >>> sim = Simulator(seed=1)
    >>> fired = []
    >>> _ = sim.schedule(10.0, fired.append, "a")
    >>> _ = sim.schedule(5.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    10.0
    """

    #: Current simulated time in milliseconds.  A plain attribute, so
    #: the per-packet paths read the clock without a call; only the
    #: simulator writes it.
    now: float

    def __init__(self, seed: int = 0) -> None:
        self.now = 0.0
        self._queue = EventQueue()
        self._running = False
        self.rng = RandomStreams(seed)
        self.seed = seed

    @property
    def pending_events(self) -> int:
        """Number of live events still queued."""
        return len(self._queue)

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` ms of simulated time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self._queue.push(self.now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Run ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before now ({self.now})"
            )
        return self._queue.push(time, callback, *args)

    def schedule_at_many(
        self,
        times: Sequence[float],
        callback: Callable[..., Any],
        args: Sequence[Tuple[Any, ...]],
        kind: Type[E],
    ) -> List[E]:
        """``schedule_at(times[i], callback, *args[i])`` for every ``i``,
        in order, as one call (see :meth:`EventQueue.push_many`)."""
        if times and min(times) < self.now:
            raise SimulationError(
                f"cannot schedule at {min(times)} before now ({self.now})"
            )
        return self._queue.push_many(times, callback, args, kind)

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``callback(*args)`` at the current instant, after the
        currently executing event completes."""
        return self._queue.push(self.now, callback, *args)

    def step(self) -> bool:
        """Execute the single next event.  Returns False when idle."""
        event = self._queue.pop()
        if event is None:
            return False
        if event.time < self.now:  # pragma: no cover - defensive
            raise SimulationError("event queue returned an event in the past")
        self.now = event.time
        event.callback(*event.args)
        return True

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have executed.

        Returns the number of events executed.  When stopped by ``until``,
        the clock is advanced to exactly ``until`` (events due later stay
        queued), matching how a wall-clock deadline behaves on a testbed.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        executed = 0
        # Hot loop: the heap is accessed directly -- one C heappop per
        # event (plus one push-back when deadline-bounded), the callback
        # and its arguments taken straight from the entry unpack, no
        # per-event method calls or counter writes.  `step()` is not
        # used here; its method-call and defensive-check overhead is
        # what this loop exists to avoid.  Holding the heap list across
        # callbacks is safe because EventQueue mutates it only in place
        # (push appends, clear()/compaction use in-place mutation,
        # never rebinding).
        queue = self._queue
        heap = queue._heap
        heappop = heapq.heappop
        if max_events is None:
            remaining = -1
        else:
            remaining = max_events if max_events > 0 else 0
        try:
            if until is None and remaining == -1:
                # Full drain, the common case: the tightest loop.
                while heap:
                    time, _, callback, args, event = heappop(heap)
                    if event.cancelled:
                        queue._dead -= 1
                        continue
                    event.fired = True
                    self.now = time
                    callback(*args)
                    executed += 1
            elif until is None:
                while remaining != 0 and heap:
                    time, _, callback, args, event = heappop(heap)
                    if event.cancelled:
                        queue._dead -= 1
                        continue
                    event.fired = True
                    self.now = time
                    callback(*args)
                    executed += 1
                    remaining -= 1
            else:
                # Deadline-bounded: pop, and push back the one entry due
                # after `until` -- (time, seq) keys are unique, so it
                # goes back to the same place in the pop order.
                while remaining != 0 and heap:
                    entry = heappop(heap)
                    time, _, callback, args, event = entry
                    if event.cancelled:
                        queue._dead -= 1
                        continue
                    if time > until:
                        heapq.heappush(heap, entry)
                        break
                    event.fired = True
                    self.now = time
                    callback(*args)
                    executed += 1
                    remaining -= 1
                if self.now < until:
                    self.now = until
        finally:
            self._running = False
        return executed

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero.

        Random streams are *not* re-seeded; construct a fresh simulator
        for a statistically independent run.
        """
        self._queue.clear()
        self.now = 0.0
