"""Event handle and simulator queue unit and property tests."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.sim.engine import Simulator


def test_pop_orders_by_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(5.0, fired.append, "b")
    sim.schedule_at(1.0, fired.append, "a")
    sim.schedule_at(9.0, fired.append, "c")
    assert sim.run() == 3
    assert fired == ["a", "b", "c"]


def test_fifo_tie_break_at_same_time():
    sim = Simulator()
    order = []
    for tag in range(10):
        sim.schedule_at(3.0, order.append, tag)
    sim.run()
    assert order == list(range(10))


def test_len_counts_live_events():
    sim = Simulator()
    handles = [sim.schedule_at(float(i), lambda: None) for i in range(4)]
    assert sim.pending_events == 4
    handles[1].cancel()
    assert sim.pending_events == 3
    sim.run(until=0.0)
    assert sim.pending_events == 2


def test_cancelled_events_are_skipped():
    sim = Simulator()
    fired = []
    keep = sim.schedule_at(1.0, fired.append, "keep")
    drop = sim.schedule_at(0.5, fired.append, "drop")
    drop.cancel()
    assert sim.run() == 1
    assert fired == ["keep"]
    assert sim.pending_events == 0
    assert keep.fired and not drop.fired


def test_cancel_is_idempotent_and_noop_after_fire():
    sim = Simulator()
    handle = sim.schedule_at(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert sim.pending_events == 0
    assert sim._dead == 1
    sim2 = Simulator()
    handle2 = sim2.schedule_at(1.0, lambda: None)
    sim2.run()
    handle2.cancel()  # already fired: must not corrupt the live count
    assert sim2.pending_events == 0
    assert sim2._dead == 0
    assert not handle2.cancelled


def test_handle_pending_lifecycle():
    sim = Simulator()
    handle = sim.schedule_at(2.0, lambda: None)
    assert handle.pending and not handle.fired and not handle.cancelled
    sim.run()
    assert handle.fired and not handle.pending


def test_compaction_drops_dead_entries_in_place():
    """Once cancelled entries pass the floor and outnumber live ones the
    heap is rebuilt without them -- the same list object, which the run
    loop holds across callbacks -- and the survivors keep their order."""
    sim = Simulator()
    heap = sim._heap
    fired = []
    handles = [sim.schedule_at(float(i % 3), fired.append, i) for i in range(200)]
    for handle in handles[: Simulator.COMPACT_MIN * 2]:
        handle.cancel()
    assert sim._heap is heap
    assert sim._dead < Simulator.COMPACT_MIN
    assert len(heap) - sim._dead == sim.pending_events == 200 - 128
    sim.run()
    assert fired == sorted(range(128, 200), key=lambda i: (i % 3, i))


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=200))
def test_property_pop_order_is_sorted(times):
    sim = Simulator()
    popped = []
    for t in times:
        sim.schedule_at(t, lambda: popped.append(sim.now))
    sim.run()
    assert popped == sorted(times)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=100), st.booleans()),
        max_size=100,
    )
)
def test_property_cancellation_respects_live_count(entries):
    sim = Simulator()
    handles = [(sim.schedule_at(t, lambda: None), cancel) for t, cancel in entries]
    expected_live = len(entries)
    for handle, cancel in handles:
        if cancel:
            handle.cancel()
            expected_live -= 1
    assert sim.pending_events == expected_live
    assert sim.run() == expected_live
    assert sim.pending_events == 0
