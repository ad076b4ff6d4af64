"""The lazy request queue -- ``ScheduleNext`` of Fig. 3, Task 2.

For every advertised-but-not-received message the queue tracks the known
sources (IHAVE senders) in arrival order.  The schedule follows section
4.1:

- the first request fires ``strategy.first_request_delay`` after the
  first advertisement (0 for Flat/TTL/Ranked, ``T0`` for Radius);
- while un-asked sources remain, further requests fire every
  ``strategy.retry_period_ms`` (the paper's ``T`` = 400 ms), each to a
  source chosen by ``strategy.select_source`` (FIFO order by default,
  nearest-source for Radius);
- the queue "eventually clears itself as requests on all known sources
  ... are scheduled": once every source was asked, the entry is dropped.
  A later advertisement simply re-queues the message.

``Clear(i)`` (payload received) cancels everything for the message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.scheduler.interfaces import TransmissionStrategy
from repro.sim.engine import Simulator
from repro.sim.events import Event

#: Callback used to emit a request: (message_id, source) -> None
SendRequestFn = Callable[[int, int], None]


@dataclass
class _PendingMessage:
    sources: List[int] = field(default_factory=list)
    source_set: Set[int] = field(default_factory=set)
    asked: Set[int] = field(default_factory=set)
    timer: Optional[Event] = None


class RequestQueue:
    """Per-node scheduling of IWANT requests."""

    def __init__(
        self,
        sim: Simulator,
        strategy: TransmissionStrategy,
        send_request: SendRequestFn,
    ) -> None:
        self.sim = sim
        self.strategy = strategy
        self.send_request = send_request
        self._pending: Dict[int, _PendingMessage] = {}
        self.requests_sent = 0
        #: Requests beyond the first for their entry.
        self.retries_sent = 0

    def __len__(self) -> int:
        return len(self._pending)

    def pending_sources(self, message_id: int) -> List[int]:
        """Known sources for a pending message (tests/diagnostics)."""
        state = self._pending.get(message_id)
        return list(state.sources) if state else []

    # -- Fig. 3 interface ------------------------------------------------------

    def queue(self, message_id: int, source: int) -> None:
        """``Queue(i, s)``: note that ``source`` advertised ``message_id``."""
        state = self._pending.get(message_id)
        if state is None:
            state = _PendingMessage()
            self._pending[message_id] = state
            state.sources.append(source)
            state.source_set.add(source)
            delay = self.strategy.first_request_delay(message_id, source)
            state.timer = self.sim.schedule(delay, self._fire, message_id)
            return
        if source in state.source_set:
            return
        state.sources.append(source)
        state.source_set.add(source)
        if state.timer is None or not state.timer.pending:
            # All previously known sources were already asked; the fresh
            # advertisement re-arms the schedule.
            delay = self.strategy.first_request_delay(message_id, source)
            state.timer = self.sim.schedule(delay, self._fire, message_id)

    def clear(self, message_id: int) -> None:
        """``Clear(i)``: payload received, stop requesting."""
        state = self._pending.pop(message_id, None)
        if state is not None and state.timer is not None:
            state.timer.cancel()

    # -- internals ------------------------------------------------------------

    def _fire(self, message_id: int) -> None:
        state = self._pending.get(message_id)
        if state is None:  # pragma: no cover - cleared race; timer cancelled
            return
        unasked = [s for s in state.sources if s not in state.asked]
        if not unasked:
            del self._pending[message_id]
            return
        source = self.strategy.select_source(message_id, unasked, state.asked)
        if state.asked:
            self.retries_sent += 1
        state.asked.add(source)
        self.requests_sent += 1
        self.send_request(message_id, source)
        # Always re-arm: the next firing either requests from a remaining
        # (or newly advertised) source, or finds none and drops the entry,
        # which is how "the queue eventually clears itself".
        state.timer = self.sim.schedule(
            self.strategy.retry_period_ms, self._fire, message_id
        )
