"""The scheduled event: one heap entry's payload and its own cancellation handle.

The :class:`~repro.sim.engine.Simulator` keeps a binary heap of
``(time, sequence, callback, args, event)`` tuples.  The sequence number
guarantees deterministic FIFO ordering among events scheduled for the
same instant, which in turn makes whole simulation runs reproducible
bit-for-bit given the same seed.  Because sequence numbers are unique,
heap comparisons always resolve on the first two tuple elements and run
entirely in C -- the payload is never compared, which is what makes
push/pop cheap enough for the millions of events a figure sweep
dispatches.  The callback and arguments ride in the entry (alongside
the event that owns them) so the dispatch loop needs no attribute loads
to invoke them.

Cancellation is *lazy*: a cancelled event stays in the heap and is
skipped when popped; the simulator counts such dead entries and
compacts its heap when they dominate (see ``Simulator._on_cancel``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Tuple, TypeVar

if TYPE_CHECKING:
    from repro.sim.engine import Simulator


class Event:
    """A scheduled callback, doubling as its own cancellation handle.

    Instances are created by the :class:`~repro.sim.engine.Simulator`'s
    ``schedule*`` methods and are not meant to be built directly by user
    code.  ``callback`` is invoked as ``callback(*args)`` when the event
    fires.

    As a handle it mirrors the semantics of ``asyncio.TimerHandle``:
    handles remain valid after the event fires, and cancelling a fired
    event is a harmless no-op, which keeps caller code free of "has it
    fired yet?" races.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired", "_sim")

    time: float
    seq: int
    callback: Callable[..., Any]
    args: Tuple[Any, ...]
    cancelled: bool
    fired: bool
    _sim: "Simulator"

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        sim: "Simulator",
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from running.  Idempotent; no-op once fired."""
        if self.fired or self.cancelled:
            return
        self.cancelled = True
        self._sim._on_cancel()

    @property
    def pending(self) -> bool:
        """True while the event is still queued and will run."""
        return not (self.fired or self.cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"Event(t={self.time:.3f}, seq={self.seq}, {name}, {state})"


E = TypeVar("E", bound=Event)

#: A heap slot.  Comparisons stop at ``seq`` (unique), so everything
#: after it is payload.  ``callback`` and ``args`` ride in the entry --
#: duplicating the event's own attributes -- so the simulator's dispatch
#: loop gets them from the tuple unpack it does anyway instead of two
#: attribute loads per event.
HeapEntry = Tuple[float, int, Callable[..., Any], Tuple[Any, ...], Event]
