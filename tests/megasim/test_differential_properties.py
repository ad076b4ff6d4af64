"""Hypothesis property: exact agreement across the deterministic space.

For any deterministic strategy configuration, origin, and rounds cap in
the slot-exact regime, megasim and the event kernel agree on coverage,
delivery slots and traffic totals -- not just on the hand-picked
configurations of ``test_differential.py``.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

np = pytest.importorskip("numpy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.scenarios import (
    ScenarioParams,
    flat_factory,
    hybrid_factory,
    radius_factory,
    ranked_factory,
    ttl_factory,
)
from repro.runtime.node import StrategyFactory
from repro.topology.routing import ClientNetworkModel
from tests.megasim.differential import (
    plane_model,
    run_event_message,
    run_vector_message,
)

N = 12
UNIFORM = ClientNetworkModel.uniform(N)
PLANE = plane_model(N, seed=8)

#: Event-kernel baselines are the expensive half; cache them per
#: configuration so repeated examples only pay for the vector run.
_EVENT_CACHE: Dict[Tuple[str, int, int], object] = {}


def factories() -> "st.SearchStrategy[Tuple[str, StrategyFactory, object]]":
    delay = ScenarioParams(radius_first_delay_ms=100.0)
    return st.sampled_from(
        [
            ("flat-1", flat_factory(1.0), UNIFORM),
            ("flat-0", flat_factory(0.0), UNIFORM),
            ("ttl-1", ttl_factory(1), UNIFORM),
            ("ttl-3", ttl_factory(3), UNIFORM),
            ("radius", radius_factory(delay, "distance"), PLANE),
            ("ranked", ranked_factory(), UNIFORM),
            (
                "hybrid",
                hybrid_factory(
                    ScenarioParams(
                        radius_first_delay_ms=100.0, hybrid_eager_rounds=0
                    )
                ),
                PLANE,
            ),
        ]
    )


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    config=factories(),
    origin=st.integers(min_value=0, max_value=N - 1),
    rounds=st.integers(min_value=4, max_value=9),
)
def test_exact_agreement_property(config, origin: int, rounds: int) -> None:
    name, factory, model = config
    key = (name, origin, rounds)
    if key not in _EVENT_CACHE:
        _EVENT_CACHE[key] = run_event_message(
            model, factory, origin, N - 1, rounds
        )
    event = _EVENT_CACHE[key]
    vector = run_vector_message(model, factory, origin, N - 1, rounds)
    assert event.delivered_count == vector.delivered_count
    assert np.array_equal(event.deliver_slot, vector.deliver_slot)
    assert event.msg_sent == vector.msg_sent
    assert event.ihave_sent == vector.ihave_sent
    assert event.iwant_sent == vector.iwant_sent
    assert np.array_equal(event.payload_received, vector.payload_received)
