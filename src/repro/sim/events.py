"""Event queue primitives for the discrete-event kernel.

The queue is a binary heap of ``(time, sequence, callback, args,
event)`` tuples.  The sequence number guarantees deterministic FIFO
ordering among events scheduled for the same instant, which in turn
makes whole simulation runs reproducible bit-for-bit given the same
seed.  Because sequence numbers are unique, heap comparisons always
resolve on the first two tuple elements and run entirely in C -- the
payload is never compared, which is what makes push/pop cheap enough
for the millions of events a figure sweep dispatches.  The callback and
arguments ride in the entry (alongside the event that owns them) so the
dispatch loop needs no attribute loads to invoke them.

:class:`Event` doubles as its own cancellation handle (the historic
separate ``EventHandle`` wrapper cost one extra allocation per
scheduled event; the name survives as an alias for typing and imports).

Cancellation is *lazy*: cancelled events stay in the heap but are
skipped when popped, which keeps both operations O(log n) without the
bookkeeping of heap re-ordering.  To stop long churn-heavy runs from
accumulating dead heap slots, the queue compacts itself once cancelled
entries outnumber live ones (past a small floor): the heap array is
rebuilt in place without them, an O(n) operation amortised over the
>= n/2 cancellations that triggered it.  Compaction cannot perturb pop
order because the ``(time, seq)`` keys are unique and totally ordered,
and it mutates the heap list in place so the simulator's run loop can
safely hold a direct reference to it across callbacks.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Sequence, Tuple, Type, TypeVar


class Event:
    """A scheduled callback, doubling as its own cancellation handle.

    Instances are created by :class:`EventQueue` and are not meant to be
    built directly by user code.  ``callback`` is invoked as
    ``callback(*args)`` when the event fires.

    As a handle it mirrors the semantics of ``asyncio.TimerHandle``:
    handles remain valid after the event fires, and cancelling a fired
    event is a harmless no-op, which keeps caller code free of "has it
    fired yet?" races.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired", "_queue")

    time: float
    seq: int
    callback: Callable[..., Any]
    args: Tuple[Any, ...]
    cancelled: bool
    fired: bool
    _queue: "EventQueue"

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        queue: "EventQueue",
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._queue = queue

    def cancel(self) -> None:
        """Prevent the event from running.  Idempotent; no-op once fired."""
        if self.fired or self.cancelled:
            return
        self.cancelled = True
        self._queue._on_cancel()

    @property
    def pending(self) -> bool:
        """True while the event is still queued and will run."""
        return not (self.fired or self.cancelled)

    def __lt__(self, other: "Event") -> bool:
        # Kept for API compatibility (sorting events directly); the heap
        # itself orders on (time, seq) tuples and never calls this.
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"Event(t={self.time:.3f}, seq={self.seq}, {name}, {state})"


E = TypeVar("E", bound=Event)

#: Backwards-compatible alias: ``push()`` still hands out "handles",
#: they are simply the events themselves now.
EventHandle = Event

#: A heap slot.  Comparisons stop at ``seq`` (unique), so everything
#: after it is payload.  ``callback`` and ``args`` ride in the entry --
#: duplicating the event's own attributes -- so the simulator's dispatch
#: loop gets them from the tuple unpack it does anyway instead of two
#: attribute loads per event.
HeapEntry = Tuple[float, int, Callable[..., Any], Tuple[Any, ...], Event]


class EventQueue:
    """A cancellable priority queue of :class:`Event` objects.

    Live-event accounting is *derived*, not maintained per pop: fired
    events leave the heap immediately and cancelled ones are counted in
    ``_dead``, so ``len(queue)`` is exactly
    ``len(heap) - dead`` at every instant -- with zero bookkeeping on
    the dispatch hot path.
    """

    #: Compaction floor: below this many dead entries a rebuild is not
    #: worth the O(n) pass, whatever the dead/live ratio.
    COMPACT_MIN = 64

    def __init__(self) -> None:
        self._heap: List[HeapEntry] = []
        self._seq = 0
        #: Cancelled events still occupying heap slots.
        self._dead = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled, non-fired) events queued."""
        return len(self._heap) - self._dead

    def push(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        seq = self._seq
        event = Event(time, seq, callback, args, self)
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, callback, args, event))
        return event

    def push_many(
        self,
        times: Sequence[float],
        callback: Callable[..., Any],
        args: Sequence[Tuple[Any, ...]],
        kind: Type[E],
    ) -> List[E]:
        """Schedule ``callback(*args[i])`` at ``times[i]`` for every ``i``.

        Exactly ``len(times)`` :meth:`push` calls in index order -- the
        same consecutive sequence numbers, so the same firing order --
        in one call.  ``kind`` is the :class:`Event` (sub)class to build,
        so a caller's in-flight record can be the event itself.
        """
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
            event._queue = self
            heapq.heappush(heap, (time, seq, callback, arguments, event))
            append(event)
            seq += 1
        self._seq = seq
        return events

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or ``None`` if empty.

        Cancelled events encountered on the way are discarded silently.
        The returned event is marked as fired.
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[4]
            if event.cancelled:
                self._dead -= 1
                continue
            event.fired = True
            return event
        return None

    def pop_due(self, limit: Optional[float]) -> Optional[Event]:
        """Fused peek+pop: the next live event due at or before ``limit``.

        Returns ``None`` when the queue is empty or the next live event
        is due after ``limit`` (leaving it queued).  ``limit=None`` means
        no bound.  One heap access per call, replacing the historic
        ``peek_time()`` + ``pop()`` double traversal.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[4]
            if event.cancelled:
                heapq.heappop(heap)
                self._dead -= 1
                continue
            if limit is not None and entry[0] > limit:
                return None
            heapq.heappop(heap)
            event.fired = True
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the next live event without removing it."""
        heap = self._heap
        while heap and heap[0][4].cancelled:
            heapq.heappop(heap)
            self._dead -= 1
        if not heap:
            return None
        return heap[0][0]

    def clear(self) -> None:
        """Drop every queued event."""
        for entry in self._heap:
            entry[4].cancelled = True
        self._heap.clear()
        self._dead = 0

    # -- lazy-cancellation bookkeeping ---------------------------------

    def _on_cancel(self) -> None:
        """Account for one lazily-cancelled entry; compact when dead
        slots dominate the heap."""
        self._dead += 1
        if self._dead >= self.COMPACT_MIN and self._dead * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap array, in place, without cancelled entries.

        Safe for determinism: ``(time, seq)`` keys are unique, so pop
        order is a property of the entry *set*, not of the heap's
        internal array layout.  In-place mutation (slice assignment, not
        rebinding) keeps external references to the heap list valid --
        the simulator's inlined run loop relies on this.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[4].cancelled]
        heapq.heapify(heap)
        self._dead = 0
