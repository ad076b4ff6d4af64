"""Simulator engine tests."""

from __future__ import annotations

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_run_executes_in_time_order(sim):
    fired = []
    sim.schedule(10.0, fired.append, ("a", 10.0))
    sim.schedule(5.0, fired.append, ("b", 5.0))
    sim.schedule(7.5, fired.append, ("c", 7.5))
    sim.run()
    assert [tag for tag, _ in fired] == ["b", "c", "a"]
    assert sim.now == 10.0


def test_clock_advances_to_event_time(sim):
    seen = []
    sim.schedule(3.0, lambda: seen.append(sim.now))
    sim.schedule(8.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [3.0, 8.0]


def test_run_until_stops_and_advances_clock(sim):
    fired = []
    sim.schedule(5.0, fired.append, "early")
    sim.schedule(50.0, fired.append, "late")
    executed = sim.run(until=20.0)
    assert executed == 1
    assert fired == ["early"]
    assert sim.now == 20.0
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_even_when_idle(sim):
    sim.run(until=123.0)
    assert sim.now == 123.0


def test_nested_scheduling_during_event(sim):
    fired = []

    def outer():
        fired.append("outer")
        sim.schedule(1.0, fired.append, "inner")

    sim.schedule(1.0, outer)
    sim.run()
    assert fired == ["outer", "inner"]
    assert sim.now == 2.0


def test_call_soon_runs_after_current_event(sim):
    order = []

    def first():
        sim.call_soon(order.append, "soon")
        order.append("first")

    sim.schedule(1.0, first)
    sim.run()
    assert order == ["first", "soon"]


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_past_rejected(sim):
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_cancel_prevents_execution(sim):
    fired = []
    handle = sim.schedule(1.0, fired.append, "no")
    handle.cancel()
    sim.run()
    assert fired == []


def test_determinism_across_identical_runs():
    def run_once():
        sim = Simulator(seed=99)
        trace = []
        rng = sim.rng.stream("test")

        def tick(depth):
            trace.append((round(sim.now, 6), depth, rng.random()))
            if depth < 50:
                sim.schedule(rng.uniform(0.1, 5.0), tick, depth + 1)

        sim.schedule(1.0, tick, 0)
        sim.run()
        return trace

    assert run_once() == run_once()


def test_run_is_not_reentrant(sim):
    def recurse():
        sim.run()

    sim.schedule(1.0, recurse)
    with pytest.raises(SimulationError):
        sim.run()
