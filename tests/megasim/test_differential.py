"""Differential: megasim vs. the event kernel.

Exact tier: in the slot-exact regime (uniform latency, no NIC/loss/
jitter, oracle full fanout, deterministic strategy) every observable
the two backends share must match field by field.  Statistical tier:
with probabilistic strategies the kernels draw from different RNG
streams, so only distributional agreement (seeded, fixed bounds) is
claimed.
"""

from __future__ import annotations

import dataclasses

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
from repro.megasim import differential
from repro.megasim.differential import (
    exact_pair,
    plane_model,
    run_event_message,
    run_vector_message,
)
from repro.topology.routing import ClientNetworkModel

N = 24
ROUNDS = 8
UNIFORM = ClientNetworkModel.uniform(N)
PLANE = plane_model(N, seed=3)
#: First-request delay of 100 ms = exactly 2 slots at L=50; one slot
#: would be ambiguous in the event kernel (see repro.megasim.rounds).
TWO_SLOT_DELAY = ScenarioParams(radius_first_delay_ms=100.0)
HYBRID_PURE = ScenarioParams(
    radius_first_delay_ms=100.0, hybrid_eager_rounds=0
)

#: (factory, model, per-node payload counts exact, round histogram exact).
#: Ranked FIFO pull-source choice is ambiguous when several adverts land
#: in one slot (the event kernel's arrival interleaving is not modeled),
#: so its per-node send counts are excluded; Radius/Hybrid latency
#: metrics alter *when* nodes learn, so only Flat/TTL pin histograms.
EXACT_CONFIGS = {
    "flat-1": (flat_factory(1.0), UNIFORM, True, True),
    "flat-0": (flat_factory(0.0), UNIFORM, True, True),
    "ttl-2": (ttl_factory(2), UNIFORM, True, True),
    "radius-distance": (
        radius_factory(TWO_SLOT_DELAY, "distance"), PLANE, True, False,
    ),
    "ranked": (ranked_factory(), UNIFORM, False, False),
    "hybrid-pure": (hybrid_factory(HYBRID_PURE), PLANE, True, False),
}


@pytest.mark.parametrize("name", sorted(EXACT_CONFIGS))
@pytest.mark.parametrize("origin", [0, 7, N - 1])
def test_exact_agreement(name: str, origin: int) -> None:
    factory, model, sent_exact, hist_exact = EXACT_CONFIGS[name]
    event, vector = exact_pair(model, factory, origin=origin, rounds=ROUNDS)
    assert event.delivered_count == vector.delivered_count == N
    assert np.array_equal(event.deliver_slot, vector.deliver_slot)
    assert event.msg_sent == vector.msg_sent
    assert event.ihave_sent == vector.ihave_sent
    assert event.iwant_sent == vector.iwant_sent
    assert np.array_equal(event.payload_received, vector.payload_received)
    if sent_exact:
        assert np.array_equal(event.payload_sent, vector.payload_sent)
        assert event.link_counts == vector.link_counts
    else:
        assert int(event.payload_sent.sum()) == int(vector.payload_sent.sum())
    if hist_exact:
        assert (
            event.receipt_round_histogram()
            == vector.receipt_round_histogram()
        )


def test_origin_requests_its_own_message_when_fully_lazy() -> None:
    """The event kernel's scheduler never marks a locally multicast
    payload as received, so under Flat(0) the origin IWANTs its own
    message and gets a duplicate -- the vector kernel must reproduce
    this, not idealize it away."""
    event, vector = exact_pair(UNIFORM, flat_factory(0.0), origin=2,
                               rounds=ROUNDS)
    assert event.iwant_sent == vector.iwant_sent == N
    assert int(event.payload_received[2]) == 1
    assert int(vector.payload_received[2]) == 1


def test_event_half_rejects_a_run_that_purged(monkeypatch) -> None:
    """The slot kernel has no connection buffers, so an event run whose
    transport purged a packet is outside the exact regime and must fail
    by name, not be compared.  A one-packet buffer purges under Radius."""
    exact_config = differential.slot_exact_config
    monkeypatch.setattr(
        differential,
        "slot_exact_config",
        lambda *args: dataclasses.replace(
            exact_config(*args), connection_buffer_capacity=1
        ),
    )
    factory, model, _, _ = EXACT_CONFIGS["radius-distance"]
    with pytest.raises(ValueError, match="purged_count"):
        run_event_message(model, factory, 0, N - 1, ROUNDS)


class TestStatisticalTier:
    """Flat(0<p<1): different RNG streams, same distribution."""

    def test_flat_half_agrees_statistically(self) -> None:
        n, rounds, p = 60, 8, 0.5
        model = ClientNetworkModel.uniform(n)
        factory = flat_factory(p)
        event = run_event_message(model, factory, 0, n - 1, rounds, seed=5)
        vector = run_vector_message(model, factory, 0, n - 1, rounds, seed=5)
        # Full coverage is certain (every undelivered node is advertised
        # to by every sender), latency within a slot of each other, and
        # total payload traffic within fixed bounds around p * fanout
        # per delivery.
        assert event.delivered_count == vector.delivered_count == n
        for outcome in (event, vector):
            per_delivery = outcome.msg_sent / n
            assert 0.35 * (n - 1) <= per_delivery <= 0.65 * (n - 1)
        event_mean = float(event.deliver_slot[1:].mean())
        vector_mean = float(vector.deliver_slot[1:].mean())
        assert abs(event_mean - vector_mean) <= 1.0

    def test_partial_fanout_covers_like_event_kernel(self) -> None:
        n, fanout, rounds = 80, 8, 9
        model = ClientNetworkModel.uniform(n)
        factory = flat_factory(1.0)
        event = run_event_message(model, factory, 0, fanout, rounds, seed=9)
        vector = run_vector_message(model, factory, 0, fanout, rounds, seed=9)
        assert event.delivered_count == n
        assert vector.delivered_count == n
        assert event.msg_sent == vector.msg_sent == fanout * n
