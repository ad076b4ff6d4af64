"""Differential property tests for the simulator's tuple-heap queue.

The PR that introduced ``(time, seq, event)`` heap entries (C-level
comparisons, merged handle/event objects, lazy-cancel compaction)
must be observationally identical to the historic object-heap queue,
and so must the simulator that now owns that heap.  This file carries a
faithful inline copy of the legacy queue and drives a
:class:`~repro.sim.engine.Simulator` and that queue (run by the same
deadline rule: fire every live event due at or before ``until``, then
advance the clock to ``until``) through arbitrary interleavings of
``schedule_at``, ``cancel``, ``run(until=t)`` and ``run()`` generated by
hypothesis -- events may schedule a follow-up (``call_soon`` or
``schedule``) when they fire -- asserting equality of:

- firing order ``(time, seq)`` and payloads;
- the clock and the executed count after every ``run``;
- the live-event count after every operation;
- handle semantics (``pending``/``cancelled``/``fired``) for every
  handle ever issued, including cancel-after-fire no-ops.

The dead-entry count is checked against the heap after every step and
the compaction bound after every cancellation, with compaction floors
low enough that it fires, so a bookkeeping drift cannot hide behind
identical external behaviour.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator


# -- the legacy implementation (pre-tuple-heap), verbatim semantics ---------


class _LegacyEvent:
    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired")

    def __init__(self, time, seq, callback, args):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    def __lt__(self, other):
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq


class _LegacyHandle:
    __slots__ = ("_event", "_queue")

    def __init__(self, event, queue):
        self._event = event
        self._queue = queue

    def cancel(self):
        event = self._event
        if event.fired or event.cancelled:
            return
        event.cancelled = True
        self._queue._live -= 1

    @property
    def cancelled(self):
        return self._event.cancelled

    @property
    def fired(self):
        return self._event.fired

    @property
    def pending(self):
        return not (self._event.fired or self._event.cancelled)


class _LegacyQueue:
    def __init__(self) -> None:
        self._heap: List[_LegacyEvent] = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def push(self, time: float, callback: Callable[..., Any], *args: Any):
        event = _LegacyEvent(time, self._seq, callback, args)
        self._seq += 1
        self._live += 1
        heapq.heappush(self._heap, event)
        return _LegacyHandle(event, self)

    def pop(self) -> Optional[_LegacyEvent]:
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            event.fired = True
            self._live -= 1
            return event
        return None

    def peek_time(self) -> Optional[float]:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0].time

    def pop_due(self, limit: Optional[float]) -> Optional[_LegacyEvent]:
        # The specification of the fused call: peek, bail if late, pop.
        time = self.peek_time()
        if time is None or (limit is not None and time > limit):
            return None
        return self.pop()

    def clear(self) -> None:
        for event in self._heap:
            event.cancelled = True
        self._heap.clear()
        self._live = 0


# -- the two sides -----------------------------------------------------------


class _SimSide:
    """A :class:`Simulator` whose events log ``(now, seq, serial)``."""

    def __init__(self, compact_min: int) -> None:
        self.sim = Simulator()
        self.sim.COMPACT_MIN = compact_min
        self.handles: List[Any] = []
        self.fired: List[Tuple[float, int, int]] = []

    def schedule_at(self, time: float, child: int) -> None:
        self.handles.append(
            self.sim.schedule_at(time, self._fire, len(self.handles), child)
        )

    def _fire(self, serial: int, child: int) -> None:
        self.fired.append((self.sim.now, self.handles[serial].seq, serial))
        if child == 1:
            handle = self.sim.call_soon(self._fire, len(self.handles), 0)
            self.handles.append(handle)
        elif child:
            handle = self.sim.schedule(child - 1, self._fire, len(self.handles), 0)
            self.handles.append(handle)


class _LegacySide:
    """The legacy queue under the simulator's deadline rule."""

    def __init__(self) -> None:
        self.queue = _LegacyQueue()
        self.now = 0.0
        self.handles: List[_LegacyHandle] = []
        self.fired: List[Tuple[float, int, int]] = []

    def schedule_at(self, time: float, child: int) -> None:
        self.handles.append(
            self.queue.push(time, self._fire, len(self.handles), child)
        )

    def _fire(self, serial: int, child: int) -> None:
        self.fired.append((self.now, self.handles[serial]._event.seq, serial))
        if child:
            self.schedule_at(self.now + (child - 1), 0)

    def run(self, until: Optional[float]) -> int:
        executed = 0
        while (event := self.queue.pop_due(until)) is not None:
            self.now = event.time
            event.callback(*event.args)
            executed += 1
        if until is not None and self.now < until:
            self.now = until
        return executed


# -- operation interpreter ---------------------------------------------------


#: Small time range so same-instant ties (the FIFO-order case) are common.
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("schedule_at"),
            st.integers(min_value=0, max_value=12),
            st.integers(min_value=0, max_value=3),
        ),
        st.tuples(
            st.just("cancel"), st.integers(min_value=0, max_value=512), st.just(0)
        ),
        st.tuples(
            st.just("run_until"), st.integers(min_value=0, max_value=12), st.just(0)
        ),
        st.tuples(st.just("run"), st.just(0), st.just(0)),
    ),
    max_size=300,
)


def _check_dead_count(sim: Simulator) -> None:
    """The simulator's dead-entry count must always match its heap."""
    dead = sum(1 for entry in sim._heap if entry[-1].cancelled)
    assert sim._dead == dead
    assert sim.pending_events == len(sim._heap) - dead


def _check_compaction_bound(sim: Simulator) -> None:
    """After a cancellation, dead entries past the floor never outnumber
    the live ones: that cancellation would have compacted the heap."""
    assert not (sim._dead >= sim.COMPACT_MIN and sim._dead * 2 > len(sim._heap))


@settings(max_examples=200, deadline=None)
@given(ops=_OPS, compact_min=st.sampled_from([1, 4, Simulator.COMPACT_MIN]))
def test_tuple_queue_matches_legacy_queue(
    ops: List[Tuple[str, int, int]], compact_min: int
) -> None:
    new = _SimSide(compact_min)
    old = _LegacySide()
    sim = new.sim

    for op, value, child in ops:
        if op == "schedule_at":
            new.schedule_at(sim.now + value, child)
            old.schedule_at(old.now + value, child)
        elif op == "cancel":
            if new.handles:
                index = value % len(new.handles)
                new.handles[index].cancel()
                old.handles[index].cancel()
                _check_compaction_bound(sim)
        else:
            until = sim.now + value if op == "run_until" else None
            assert sim.run(until) == old.run(until)
            assert sim.now == old.now
        assert new.fired == old.fired
        assert sim.pending_events == len(old.queue)
        _check_dead_count(sim)

    # Handle semantics must agree for every handle ever issued...
    assert len(new.handles) == len(old.handles)
    for new_handle, old_handle in zip(new.handles, old.handles):
        assert new_handle.pending == old_handle.pending
        assert new_handle.cancelled == old_handle.cancelled
        assert new_handle.fired == old_handle.fired

    # ...and the final drain must fire the same events in the same order.
    assert sim.run() == old.run(None)
    assert new.fired == old.fired
    assert sim.now == old.now
    assert sim.pending_events == len(old.queue) == 0
    _check_dead_count(sim)


def _noop(*args: Any) -> None:
    pass


@settings(max_examples=50, deadline=None)
@given(
    count=st.integers(min_value=150, max_value=400),
    stride=st.integers(min_value=2, max_value=5),
)
def test_mass_cancellation_compacts_without_reordering(
    count: int, stride: int
) -> None:
    """Cancelling most of a large queue triggers compaction; the
    survivors still fire in exact (time, seq) order."""
    sim = Simulator()
    popped: List[int] = []
    handles = [sim.schedule_at(float(i % 7), popped.append, i) for i in range(count)]
    survivors = [i for i in range(count) if i % stride == 0]
    for i, handle in enumerate(handles):
        if i % stride != 0:
            handle.cancel()
    # Compaction fired: dead entries cannot dominate the heap.
    assert sim._dead < max(Simulator.COMPACT_MIN, len(sim._heap))
    _check_dead_count(sim)

    expected = sorted(survivors, key=lambda i: (float(i % 7), i))
    assert sim.run() == len(expected)
    assert popped == expected
    assert sim.pending_events == 0
