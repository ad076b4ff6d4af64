"""The discrete-event simulator.

A :class:`Simulator` owns the simulated clock and the event queue.  All
protocol components (transports, overlays, gossip nodes, schedulers)
interact with time exclusively through it, which is what lets
the same protocol code run unmodified across unit tests, property tests
and full experiment sweeps.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Optional, Sequence, Tuple, Type

from repro.sim.events import E, Event, HeapEntry
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

    The queue is a binary heap of :data:`~repro.sim.events.HeapEntry`
    tuples ordered on their unique ``(time, seq)`` keys.  Live-event
    accounting is *derived*: fired events leave the heap immediately and
    cancelled ones are counted in ``_dead``, so :attr:`pending_events` is
    ``len(heap) - dead`` with no bookkeeping on the dispatch path.

    Example
    -------
    >>> sim = Simulator(seed=1)
    >>> fired = []
    >>> _ = sim.schedule(10.0, fired.append, "a")
    >>> _ = sim.schedule(5.0, fired.append, "b")
    >>> sim.run()
    2
    >>> fired
    ['b', 'a']
    >>> sim.now
    10.0
    """

    #: Compaction floor: below this many dead entries a rebuild is not
    #: worth the O(n) pass, whatever the dead/live ratio.
    COMPACT_MIN = 64

    #: Current simulated time in milliseconds.  A plain attribute, so
    #: the per-packet paths read the clock without a call; only the
    #: simulator writes it.
    now: float

    def __init__(self, seed: int = 0) -> None:
        self.now = 0.0
        self._heap: List[HeapEntry] = []
        self._seq = 0
        #: Cancelled events still occupying heap slots.
        self._dead = 0
        self._running = False
        self.rng = RandomStreams(seed)
        self.seed = seed

    @property
    def pending_events(self) -> int:
        """Number of live events still queued."""
        return len(self._heap) - self._dead

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Run ``callback(*args)`` after ``delay`` ms of simulated time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, args, self)
        heapq.heappush(self._heap, (time, seq, callback, args, event))
        return event

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Run ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before now ({self.now})"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, args, self)
        heapq.heappush(self._heap, (time, seq, callback, args, event))
        return event

    def schedule_at_many(
        self,
        times: Sequence[float],
        callback: Callable[..., Any],
        args: Sequence[Tuple[Any, ...]],
        kind: Type[E],
    ) -> List[E]:
        """``schedule_at(times[i], callback, *args[i])`` for every ``i``,
        in index order -- the same consecutive sequence numbers, so the
        same firing order -- as one call.  ``kind`` is the :class:`Event`
        (sub)class to build, so a caller's in-flight record can be the
        event itself."""
        if times and min(times) < self.now:
            raise SimulationError(
                f"cannot schedule at {min(times)} before now ({self.now})"
            )
        heap = self._heap
        seq = self._seq
        events: List[E] = []
        append = events.append
        for time, arguments in zip(times, args):
            # Event.__init__'s fields, set here without its frame.
            event = kind.__new__(kind)
            event.time = time
            event.seq = seq
            event.callback = callback
            event.args = arguments
            event.cancelled = False
            event.fired = False
            event._sim = self
            heapq.heappush(heap, (time, seq, callback, arguments, event))
            append(event)
            seq += 1
        self._seq = seq
        return events

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> Event:
        """Run ``callback(*args)`` at the current instant, after the
        currently executing event completes."""
        time = self.now
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, args, self)
        heapq.heappush(self._heap, (time, seq, callback, args, event))
        return event

    def run(self, until: Optional[float] = None) -> int:
        """Run events due at or before ``until``, or every queued event
        when ``until`` is ``None``.

        Returns the number of events executed.  When stopped by ``until``,
        the clock is advanced to exactly ``until`` (events due later stay
        queued), matching how a wall-clock deadline behaves on a testbed;
        a drain leaves the clock at the last event's time.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        executed = 0
        deadline = math.inf if until is None else until
        # Hot loop: one C heappop per event (plus one push-back of the
        # entry due after the deadline -- (time, seq) keys are unique,
        # so it goes back to the same place in the pop order), the
        # callback and its arguments taken straight from the entry
        # unpack, no per-event method calls.  Holding the heap list
        # across callbacks is safe because it is only mutated in place
        # (pushes append, compaction assigns a slice).
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap:
                entry = heappop(heap)
                time, _, callback, args, event = entry
                if event.cancelled:
                    self._dead -= 1
                    continue
                if time > deadline:
                    heapq.heappush(heap, entry)
                    break
                event.fired = True
                self.now = time
                callback(*args)
                executed += 1
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False
        return executed

    def _on_cancel(self) -> None:
        """Account for one lazily-cancelled entry; once dead slots
        outnumber live ones (past :attr:`COMPACT_MIN`), rebuild the heap
        without them -- an O(n) pass amortised over the >= n/2
        cancellations that triggered it.

        Safe for determinism: ``(time, seq)`` keys are unique, so pop
        order is a property of the entry *set*, not of the heap's
        internal array layout.  The slice assignment (not a rebinding)
        keeps the reference :meth:`run` holds valid.
        """
        self._dead += 1
        heap = self._heap
        if self._dead >= self.COMPACT_MIN and self._dead * 2 > len(heap):
            heap[:] = [entry for entry in heap if not entry[4].cancelled]
            heapq.heapify(heap)
            self._dead = 0
