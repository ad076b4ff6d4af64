"""Request queue (ScheduleNext) tests."""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduler.requests import RequestQueue
from repro.sim.engine import Simulator
from repro.strategies.base import BaseStrategy


class ProbeStrategy(BaseStrategy):
    """Configurable timings for driving the queue in tests."""

    def __init__(self, first_delay=0.0, retry=100.0, nearest=None):
        super().__init__(retry_period_ms=retry)
        self._first_delay = first_delay
        self._nearest = nearest

    def eager(self, message_id, payload, round_, peer):
        return False

    def first_request_delay(self, message_id, source):
        return self._first_delay

    def select_source(self, message_id, sources: Sequence[int], asked: Set[int]):
        if self._nearest is not None:
            return min(sources, key=self._nearest)
        return sources[0]


def build(sim, **kwargs) -> Tuple[RequestQueue, List[Tuple[float, int, int]]]:
    requests: List[Tuple[float, int, int]] = []
    queue = RequestQueue(
        sim,
        ProbeStrategy(**kwargs),
        lambda mid, src: requests.append((sim.now, mid, src)),
    )
    return queue, requests


def test_first_request_immediate_by_default(sim):
    queue, requests = build(sim)
    queue.queue(1, source=7)
    sim.run()
    assert requests == [(0.0, 1, 7)]


def test_first_request_delayed_for_radius_style(sim):
    queue, requests = build(sim, first_delay=60.0)
    queue.queue(1, source=7)
    sim.run()
    assert requests == [(60.0, 1, 7)]


def test_retries_cycle_through_sources_every_period(sim):
    queue, requests = build(sim, retry=100.0)
    queue.queue(1, source=7)
    queue.queue(1, source=8)
    queue.queue(1, source=9)
    sim.run()
    assert requests == [(0.0, 1, 7), (100.0, 1, 8), (200.0, 1, 9)]
    # All sources asked; the entry clears itself on the next firing.
    assert len(queue) == 0


def test_duplicate_source_ignored(sim):
    queue, requests = build(sim)
    queue.queue(1, source=7)
    queue.queue(1, source=7)
    sim.run()
    assert requests == [(0.0, 1, 7)]


def test_clear_cancels_pending_requests(sim):
    queue, requests = build(sim, first_delay=50.0)
    queue.queue(1, source=7)
    sim.run(until=10.0)
    queue.clear(1)
    sim.run()
    assert requests == []
    assert len(queue) == 0


def test_clear_stops_retries_after_first_request(sim):
    queue, requests = build(sim, retry=100.0)
    queue.queue(1, source=7)
    queue.queue(1, source=8)
    sim.run(until=50.0)  # first request fired, retry pending
    queue.clear(1)
    sim.run()
    assert requests == [(0.0, 1, 7)]


def test_new_source_after_exhaustion_rearms(sim):
    queue, requests = build(sim)
    queue.queue(1, source=7)
    sim.run()  # asks 7, then self-clears
    assert len(queue) == 0
    queue.queue(1, source=8)
    sim.run()
    assert requests[-1][2] == 8


def test_rearmed_entry_still_self_clears(sim):
    """A late IHAVE re-arms the schedule, and once the fresh source is
    asked too the entry drops itself again -- no timer leaks."""
    queue, requests = build(sim, retry=100.0)
    queue.queue(1, source=7)
    sim.run()
    assert len(queue) == 0
    queue.queue(1, source=8)  # late advertisement re-arms
    assert len(queue) == 1
    sim.run()
    assert [src for _, _, src in requests] == [7, 8]
    assert len(queue) == 0
    assert sim.pending_events == 0


def test_clear_after_rearm_cancels_timer(sim):
    queue, requests = build(sim, first_delay=40.0)
    queue.queue(1, source=7)
    sim.run()
    queue.queue(1, source=8)  # re-armed, timer pending at +40
    queue.clear(1)
    sim.run()
    assert [src for _, _, src in requests] == [7]
    assert len(queue) == 0


def test_nearest_source_selection(sim):
    distances = {7: 30.0, 8: 5.0, 9: 12.0}
    queue, requests = build(sim, nearest=lambda s: distances[s])
    queue.queue(1, source=7)
    queue.queue(1, source=8)
    queue.queue(1, source=9)
    sim.run()
    assert [src for _, _, src in requests] == [8, 9, 7]


def test_independent_messages_tracked_separately(sim):
    queue, requests = build(sim, retry=100.0)
    queue.queue(1, source=7)
    queue.queue(2, source=8)
    sim.run(until=10.0)
    assert {(mid, src) for _, mid, src in requests} == {(1, 7), (2, 8)}
    assert queue.pending_sources(1) == [7]
    assert queue.requests_sent == 2


def test_sources_arriving_mid_cycle_are_eventually_asked(sim):
    queue, requests = build(sim, retry=100.0)
    queue.queue(1, source=7)
    queue.queue(1, source=8)
    sim.run(until=50.0)
    queue.queue(1, source=9)  # arrives while retry timer pending
    sim.run()
    assert [src for _, _, src in requests] == [7, 8, 9]


# -- property: Clear(i) always cancels the schedule --------------------------


@st.composite
def _op_sequences(draw):
    """Interleaved queue/clear/advance operations over a few messages."""
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("queue"),
                    st.integers(min_value=1, max_value=3),
                    st.integers(min_value=10, max_value=14),
                ),
                st.tuples(
                    st.just("clear"), st.integers(min_value=1, max_value=3)
                ),
                st.tuples(
                    st.just("advance"),
                    st.floats(min_value=1.0, max_value=250.0),
                ),
            ),
            min_size=1,
            max_size=30,
        )
    )
    return ops


@given(_op_sequences())
@settings(max_examples=60, deadline=None)
def test_clear_always_cancels_schedule(ops):
    """After ``clear(i)`` no request for ``i`` ever fires again (until a
    fresh advertisement), and a drained queue leaves no live timers."""
    sim = Simulator(seed=9)
    requests = []
    queue = RequestQueue(
        sim,
        ProbeStrategy(retry=100.0),
        lambda mid, src: requests.append((sim.now, mid, src)),
    )
    cleared_at: dict = {}
    for op in ops:
        if op[0] == "queue":
            _, mid, src = op
            queue.queue(mid, src)
            cleared_at.pop(mid, None)  # re-advertisement reactivates
        elif op[0] == "clear":
            _, mid = op
            queue.clear(mid)
            cleared_at[mid] = sim.now
        else:
            sim.run(until=sim.now + op[1])
    sim.run()
    for fired_at, mid, _ in requests:
        assert mid not in cleared_at or fired_at <= cleared_at[mid]
    assert len(queue) == 0
    assert sim.pending_events == 0


def test_scheduler_config_validation():
    import pytest as _pytest

    from repro.scheduler.interfaces import SchedulerConfig

    with _pytest.raises(ValueError):
        SchedulerConfig(retry_period_ms=0.0)
    with _pytest.raises(ValueError):
        SchedulerConfig(payload_bytes=0)
    with _pytest.raises(ValueError):
        SchedulerConfig(cache_capacity=0)
