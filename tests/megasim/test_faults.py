"""Differential fault parity: megasim vs. the event kernel under faults.

Exact tier: crash-stop nodes and fully-lossy directed links are
*outcome-deterministic* -- victim and link selection replay bit-for-bit
from the derived ``failures``/``failures.gray`` streams and no
per-packet coin is ever flipped -- so every shared observable, retry
counts included, must match field by field in the slot-exact regime.

Statistical tier: fractional Bernoulli loss draws per-packet coins from
different streams in the two kernels (the fabric's ``gray`` stream vs.
megasim's dedicated ``megasim.loss.{i}`` streams), so only
distributional agreement is claimed -- coverage and latency within
fixed seeded bounds -- plus the recovery invariant that pull retries
restore full coverage wherever a live advert path exists.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.experiments.scenarios import (
    ScenarioParams,
    flat_factory,
    hybrid_factory,
    radius_factory,
    ranked_factory,
    ttl_factory,
)
from repro.failures.gray import GrayFailurePlan
from repro.failures.injection import FailurePlan
from repro.megasim.adapter import compile_faults
from repro.topology.routing import ClientNetworkModel
from tests.megasim.differential import (
    exact_pair,
    plane_model,
    run_event_message,
    run_vector_message,
)

N = 24
ROUNDS = 8
#: 150 ms = exactly 3 slots at L=50: the smallest legal retry period
#: (it must exceed the 2-slot pull round-trip), so retries fire early
#: and often inside the drain window.
RETRY_MS = 150.0
UNIFORM = ClientNetworkModel.uniform(N)
PLANE = plane_model(N, seed=3)
TWO_SLOT_DELAY = ScenarioParams(radius_first_delay_ms=100.0)
HYBRID_PURE = ScenarioParams(
    radius_first_delay_ms=100.0, hybrid_eager_rounds=0
)

#: (factory, model, per-node payload counts exact) -- the five
#: strategies of the healthy exact suite.  Ranked keeps its exclusion:
#: its FIFO pull-source choice is ambiguous when several adverts land in
#: one slot, which faults only make more frequent.
STRATEGIES = {
    "flat-1": (flat_factory(1.0), UNIFORM, True),
    "flat-0": (flat_factory(0.0), UNIFORM, True),
    "ttl-2": (ttl_factory(2), UNIFORM, True),
    "radius-distance": (
        radius_factory(TWO_SLOT_DELAY, "distance"), PLANE, True,
    ),
    "ranked": (ranked_factory(), UNIFORM, False),
    "hybrid-pure": (hybrid_factory(HYBRID_PURE), PLANE, True),
}

#: The outcome-deterministic fault plans of the exact tier.
FAULTS = {
    "crash": (FailurePlan(fraction=0.25), None),
    "dead-links": (
        None,
        GrayFailurePlan(lossy_link_fraction=0.3, link_loss_probability=1.0),
    ),
    "crash+dead-links": (
        FailurePlan(fraction=0.125),
        GrayFailurePlan(lossy_link_fraction=0.2, link_loss_probability=1.0),
    ),
}


def alive_origin(failure, seed: int = 0) -> int:
    """The lowest node id the failure plan leaves alive."""
    faults = compile_faults(N, seed, failure=failure)
    if faults is None or faults.crashed is None:
        return 0
    return int(np.flatnonzero(~faults.crashed)[0])


@pytest.mark.parametrize("fault_name", sorted(FAULTS))
@pytest.mark.parametrize("strategy_name", sorted(STRATEGIES))
def test_exact_fault_agreement(strategy_name: str, fault_name: str) -> None:
    factory, model, sent_exact = STRATEGIES[strategy_name]
    failure, gray = FAULTS[fault_name]
    event, vector = exact_pair(
        model,
        factory,
        origin=alive_origin(failure),
        rounds=ROUNDS,
        retry_period_ms=RETRY_MS,
        failure=failure,
        gray=gray,
    )
    assert event.delivered_count == vector.delivered_count
    assert np.array_equal(event.deliver_slot, vector.deliver_slot)
    assert np.array_equal(event.carried_round, vector.carried_round)
    assert event.msg_sent == vector.msg_sent
    assert event.ihave_sent == vector.ihave_sent
    assert event.iwant_sent == vector.iwant_sent
    assert event.retries == vector.retries
    assert np.array_equal(event.payload_received, vector.payload_received)
    if sent_exact:
        assert np.array_equal(event.payload_sent, vector.payload_sent)
        assert event.link_counts == vector.link_counts
    else:
        assert int(event.payload_sent.sum()) == int(vector.payload_sent.sum())


def test_crashed_nodes_are_pure_sinks() -> None:
    """Crash victims never deliver, never send, never request -- in
    either kernel -- and both kernels agree on who the victims are."""
    failure = FailurePlan(fraction=0.25)
    event, vector = exact_pair(
        UNIFORM,
        flat_factory(1.0),
        origin=alive_origin(failure),
        rounds=ROUNDS,
        failure=failure,
    )
    faults = compile_faults(N, 0, failure=failure)
    crashed = np.flatnonzero(faults.crashed)
    assert crashed.size == 6
    for outcome in (event, vector):
        assert (outcome.deliver_slot[crashed] == -1).all()
        assert (outcome.payload_sent[crashed] == 0).all()
    assert event.delivered_count == vector.delivered_count == N - 6


def test_dead_links_force_retries_that_match_exactly() -> None:
    """Under a heavy dead-link plan the lazy strategy must actually
    retry (first-asked sources unreachable), and both kernels must agree
    on how often."""
    gray = GrayFailurePlan(
        lossy_link_fraction=0.4, link_loss_probability=1.0
    )
    event, vector = exact_pair(
        UNIFORM,
        flat_factory(0.0),
        origin=0,
        rounds=ROUNDS,
        retry_period_ms=RETRY_MS,
        gray=gray,
    )
    assert event.retries == vector.retries
    assert event.retries > 0, "the plan was meant to exercise retries"
    assert event.iwant_sent == vector.iwant_sent
    assert np.array_equal(event.deliver_slot, vector.deliver_slot)


class TestStatisticalTier:
    """Fractional Bernoulli loss: different coin streams, same physics."""

    def test_bernoulli_loss_agrees_statistically(self) -> None:
        n, rounds, p = 60, 9, 0.2
        model = ClientNetworkModel.uniform(n)
        factory = ttl_factory(2)
        gray = GrayFailurePlan(
            lossy_link_fraction=1.0, link_loss_probability=p
        )
        event = run_event_message(
            model, factory, 0, n - 1, rounds,
            retry_period_ms=RETRY_MS, seed=5, gray=gray,
        )
        vector = run_vector_message(
            model, factory, 0, n - 1, rounds,
            retry_period_ms=RETRY_MS, seed=5, gray=gray,
        )
        # Pull recovery restores full coverage at 20% loss with full
        # fanout: every node hears IHAVEs from many senders and retries
        # walk the source list until one round-trip survives.
        assert event.delivered_count == vector.delivered_count == n
        assert event.retries > 0
        assert vector.retries > 0
        event_mean = float(event.deliver_slot[1:].mean())
        vector_mean = float(vector.deliver_slot[1:].mean())
        assert abs(event_mean - vector_mean) <= 1.5
        # Loss inflates traffic identically: totals within 15% of each
        # other at this seed.
        assert (
            abs(event.msg_sent - vector.msg_sent)
            <= 0.15 * max(event.msg_sent, vector.msg_sent)
        )

    def test_light_loss_keeps_latency_close(self) -> None:
        n, rounds, p = 60, 9, 0.05
        model = ClientNetworkModel.uniform(n)
        factory = flat_factory(1.0)
        gray = GrayFailurePlan(
            lossy_link_fraction=1.0, link_loss_probability=p
        )
        event = run_event_message(
            model, factory, 0, n - 1, rounds, seed=7, gray=gray,
        )
        vector = run_vector_message(
            model, factory, 0, n - 1, rounds, seed=7, gray=gray,
        )
        # Flat(1.0) sends no IHAVEs, so recovery cannot help -- but at
        # 5% loss with n-1 eager copies per node, coverage stays full
        # with overwhelming probability in both kernels.
        assert event.delivered_count == n
        assert vector.delivered_count == n
        event_mean = float(event.deliver_slot[1:].mean())
        vector_mean = float(vector.deliver_slot[1:].mean())
        assert abs(event_mean - vector_mean) <= 0.5
