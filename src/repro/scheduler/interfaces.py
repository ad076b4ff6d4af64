"""Interfaces between the Payload Scheduler and its policy plugins.

The split follows section 3.2 of the paper exactly: the Lazy
Point-to-Point module asks the Transmission Strategy two questions --

- ``Eager?(i, d, r, p)``: ship the payload now, or advertise?
- ``ScheduleNext()``: when, and from which known source, should the next
  ``IWANT`` go out?

-- and feeds it ``Queue(i, s)`` / ``Clear(i)`` notifications.  In this
implementation ``ScheduleNext`` is decomposed into the three timing
primitives a discrete-event loop needs (first-request delay, the fixed
retry period ``T``, source selection); any schedule is safe as long as
every queued request is eventually scheduled, which the request queue
guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Protocol, Sequence, Set, runtime_checkable


@runtime_checkable
class PerformanceMonitor(Protocol):
    """The paper's ``Metric(p)``: a current scalar metric for peer ``p``.

    Smaller means closer/better throughout (latency in ms, distance in
    plane units).  Unknown peers return ``float('inf')`` so strategies
    treat them as far away until measured.
    """

    def metric(self, peer: int) -> float: ...


@runtime_checkable
class TransmissionStrategy(Protocol):
    """Decides payload scheduling; implementations in :mod:`repro.strategies`."""

    def eager(self, message_id: int, payload: Any, round_: int, peer: int) -> bool:
        """``Eager?(i, d, r, p)``: True to transmit payload immediately."""
        ...

    def eager_many(
        self, message_id: int, payload: Any, round_: int, peers: Sequence[int]
    ) -> Sequence[bool]:
        """``Eager?(i, d, r, p)`` for each of ``peers``, decided in peer
        order (one forward's burst); the same answers, and the same
        draws, as one :meth:`eager` call per peer."""
        ...

    def first_request_delay(self, message_id: int, source: int) -> float:
        """Delay (ms) before the first IWANT after the first IHAVE.

        Flat/TTL/Ranked request immediately (0); Radius waits ``T0``, an
        estimate of in-radius latency, to give eager paths time to win.
        """
        ...

    def select_source(
        self, message_id: int, sources: Sequence[int], asked: Set[int]
    ) -> int:
        """Pick which source to request from.

        ``sources`` holds the not-yet-asked sources in IHAVE arrival
        order (never empty); ``asked`` holds the already-requested ones
        for context.
        """
        ...

    @property
    def retry_period_ms(self) -> float:
        """``T``: period between successive requests while sources remain."""
        ...


#: The paper's retransmission period ``T`` (section 5.2).
DEFAULT_RETRY_PERIOD_MS = 400.0


@dataclass(frozen=True)
class SchedulerConfig:
    """Lazy Point-to-Point module parameters.

    ``retry_period_ms`` is the paper's ``T`` = 400 ms, "the minimal that
    results in approximately 1 payload received by each destination when
    using a fully lazy push strategy" (section 5.2).  Strategies read it
    as their default retry period.  ``payload_bytes`` feeds wire-size
    accounting for MSG packets when the payload object does not declare
    its own ``size_bytes``.

    ``ihave_batch_window_ms`` enables advertisement batching (an
    optimization NeEM-family implementations apply): instead of one
    ``IHAVE`` packet per (message, destination), advertisements to the
    same destination accumulate for the window and leave as one packet.
    0 (the default, matching the paper's model) sends immediately.
    """

    retry_period_ms: float = DEFAULT_RETRY_PERIOD_MS
    payload_bytes: int = 256
    cache_capacity: int = 4096
    received_capacity: int = 4096
    ihave_batch_window_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.retry_period_ms <= 0:
            raise ValueError("retry_period_ms must be positive")
        if self.payload_bytes < 1:
            raise ValueError("payload_bytes must be >= 1")
        if self.cache_capacity < 1 or self.received_capacity < 1:
            raise ValueError("capacities must be >= 1")
        if self.ihave_batch_window_ms < 0:
            raise ValueError("ihave_batch_window_ms must be >= 0")
