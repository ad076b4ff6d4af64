"""Hypothesis property: exact fault parity over random fault plans.

For any crash fraction, dead-link fraction, strategy, and seed in the
outcome-deterministic subset (link loss pinned to 1.0 -- no per-packet
coins), megasim and the event kernel agree exactly on delivery slots,
traffic totals, and retry counts -- not just on the hand-picked plans
of ``test_faults.py``.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

np = pytest.importorskip("numpy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.scenarios import flat_factory, ttl_factory
from repro.failures.gray import GrayFailurePlan
from repro.failures.injection import FailurePlan
from repro.megasim.adapter import compile_faults
from repro.runtime.node import StrategyFactory
from repro.topology.routing import ClientNetworkModel
from tests.megasim.differential import run_event_message, run_vector_message

N = 12
RETRY_MS = 150.0
UNIFORM = ClientNetworkModel.uniform(N)

#: Event-kernel baselines are the expensive half; cache them per
#: (strategy, plan, seed) so repeated examples only pay the vector run.
_EVENT_CACHE: Dict[Tuple[str, float, float, int], object] = {}


def factories() -> "st.SearchStrategy[Tuple[str, StrategyFactory]]":
    return st.sampled_from(
        [
            ("flat-1", flat_factory(1.0)),
            ("flat-0", flat_factory(0.0)),
            ("ttl-2", ttl_factory(2)),
        ]
    )


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    config=factories(),
    crash_fraction=st.sampled_from([0.0, 0.125, 0.25]),
    link_fraction=st.sampled_from([0.0, 0.2, 0.4]),
    seed=st.integers(min_value=0, max_value=3),
)
def test_exact_fault_parity_property(
    config, crash_fraction: float, link_fraction: float, seed: int
) -> None:
    name, factory = config
    failure = (
        FailurePlan(fraction=crash_fraction) if crash_fraction > 0 else None
    )
    gray = (
        GrayFailurePlan(
            lossy_link_fraction=link_fraction, link_loss_probability=1.0
        )
        if link_fraction > 0
        else None
    )
    faults = compile_faults(N, seed, failure=failure)
    origin = 0
    if faults is not None and faults.crashed is not None:
        origin = int(np.flatnonzero(~faults.crashed)[0])
    key = (name, crash_fraction, link_fraction, seed)
    if key not in _EVENT_CACHE:
        _EVENT_CACHE[key] = run_event_message(
            UNIFORM, factory, origin, N - 1, 6,
            retry_period_ms=RETRY_MS, seed=seed,
            failure=failure, gray=gray,
        )
    event = _EVENT_CACHE[key]
    vector = run_vector_message(
        UNIFORM, factory, origin, N - 1, 6,
        retry_period_ms=RETRY_MS, seed=seed,
        failure=failure, gray=gray,
    )
    assert event.delivered_count == vector.delivered_count
    assert np.array_equal(event.deliver_slot, vector.deliver_slot)
    assert np.array_equal(event.carried_round, vector.carried_round)
    assert event.msg_sent == vector.msg_sent
    assert event.ihave_sent == vector.ihave_sent
    assert event.iwant_sent == vector.iwant_sent
    assert event.retries == vector.retries
    assert np.array_equal(event.payload_sent, vector.payload_sent)
    assert np.array_equal(event.payload_received, vector.payload_received)
