"""Round-kernel mechanics on small, hand-checkable cases, and the two
per-pair reductions (arrival resolution, distinct-row sampling) held to
slow reference implementations over hypothesis-generated inputs -- the
pattern of ``tests/sim/test_events_property.py``."""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings, strategies as st

from repro.experiments.scenarios import flat_factory, ttl_factory
from repro.megasim.adapter import UniformTopology, build_views
from repro.megasim.rounds import (
    MessageOutcome,
    SlotScratch,
    _process_arrivals,
    _sample_without_replacement,
    _SlotQueues,
    disseminate,
    sample_targets,
)
from repro.megasim.state import MessageState
from repro.megasim.strategies import compile_strategy

N = 16
TOPOLOGY = UniformTopology(N, latency_ms=50.0)


def run(factory, n=N, fanout=None, rounds=8, origin=0, **kwargs) -> MessageOutcome:
    topology = UniformTopology(n, latency_ms=50.0)
    strategy = compile_strategy(factory, topology)
    return disseminate(
        topology,
        strategy,
        origin,
        fanout if fanout is not None else n - 1,
        rounds,
        np.random.default_rng(1),
        **kwargs,
    )


class TestEagerFlood:
    def test_full_fanout_floods_in_one_slot(self) -> None:
        outcome = run(flat_factory(1.0))
        assert outcome.delivered_count == N
        assert outcome.deliver_slot[0] == 0
        assert (outcome.deliver_slot[1:] == 1).all()
        assert outcome.receipt_round_histogram() == {0: 1, 1: N - 1}

    def test_traffic_accounting(self) -> None:
        outcome = run(flat_factory(1.0), rounds=1)
        # Only the origin forwards (everyone else delivers at the cap).
        assert outcome.msg_sent == N - 1
        assert outcome.ihave_sent == 0
        assert outcome.iwant_sent == 0
        assert outcome.payload_sent[0] == N - 1
        assert int(outcome.payload_received.sum()) == N - 1

    def test_rounds_cap_stops_forwarding(self) -> None:
        capped = run(flat_factory(1.0), rounds=1)
        uncapped = run(flat_factory(1.0), rounds=8)
        assert capped.delivered_count == uncapped.delivered_count == N
        assert capped.msg_sent < uncapped.msg_sent


class TestLazyPull:
    def test_pull_takes_three_slots(self) -> None:
        # IHAVE at slot 1, IWANT fired slot 1, answer lands slot 3.
        outcome = run(flat_factory(0.0))
        others = np.delete(outcome.deliver_slot, 0)
        assert (others == 3).all()

    def test_lazy_payload_is_minimal_plus_origin_quirk(self) -> None:
        outcome = run(flat_factory(0.0))
        # One pull per receiver, plus the origin's request for its own
        # message (the scheduler-layer received set does not contain
        # locally multicast payloads -- matching the event kernel).
        assert outcome.msg_sent == N
        assert outcome.iwant_sent == N
        assert int(outcome.payload_received[0]) == 1

    def test_ttl_goes_eager_then_lazy(self) -> None:
        outcome = run(ttl_factory(2))
        assert outcome.delivered_count == N
        # Forward round 1 is eager (origin's sends), round 2+ lazy.
        assert (np.delete(outcome.deliver_slot, 0) == 1).all()
        assert outcome.ihave_sent > 0

    def test_link_tracking_counts_payload_sends(self) -> None:
        outcome = run(flat_factory(1.0), rounds=1, track_links=True)
        assert outcome.link_counts is not None
        assert sum(outcome.link_counts.values()) == outcome.msg_sent
        assert all(src == 0 for (src, _dst) in outcome.link_counts)


class TestValidation:
    def test_origin_out_of_range(self) -> None:
        with pytest.raises(ValueError):
            run(flat_factory(1.0), origin=N)

    def test_bad_fanout_and_rounds(self) -> None:
        with pytest.raises(ValueError):
            run(flat_factory(1.0), fanout=0)
        with pytest.raises(ValueError):
            run(flat_factory(1.0), rounds=0)


class TestSampling:
    def test_full_fanout_is_everyone_else(self) -> None:
        rng = np.random.default_rng(0)
        src, dst = sample_targets(rng, np.array([2], dtype=np.int32), 9, 10)
        assert src.tolist() == [2] * 9
        assert sorted(dst.tolist()) == [0, 1, 3, 4, 5, 6, 7, 8, 9]

    def test_partial_fanout_excludes_self_and_duplicates(self) -> None:
        rng = np.random.default_rng(0)
        senders = np.arange(200, dtype=np.int32)
        src, dst = sample_targets(rng, senders, 5, 200)
        assert src.shape == dst.shape == (1000,)
        pairs = dst.reshape(200, 5)
        for sender, row in zip(senders.tolist(), pairs):
            values = row.tolist()
            assert sender not in values
            assert len(set(values)) == 5
            assert all(0 <= v < 200 for v in values)

    def test_view_sampling_stays_in_view(self) -> None:
        rng = np.random.default_rng(3)
        views = build_views(30, 6, rng)
        senders = np.array([4, 9], dtype=np.int32)
        src, dst = sample_targets(rng, senders, 4, 30, views=views)
        assert src.shape == dst.shape == (8,)
        for sender, target in zip(src.tolist(), dst.tolist()):
            assert target in views[sender].tolist()

    def test_view_fanout_at_degree_uses_whole_view(self) -> None:
        rng = np.random.default_rng(3)
        views = build_views(12, 5, rng)
        senders = np.array([7], dtype=np.int32)
        _src, dst = sample_targets(rng, senders, 5, 12, views=views)
        assert sorted(dst.tolist()) == sorted(views[7].tolist())

    def test_without_replacement_rows_distinct(self) -> None:
        rng = np.random.default_rng(11)
        draws = _sample_without_replacement(rng, 500, 4, 6)
        assert draws.shape == (500, 4)
        for row in draws:
            assert len(set(row.tolist())) == 4

    def test_without_replacement_rejects_impossible(self) -> None:
        with pytest.raises(ValueError):
            _sample_without_replacement(np.random.default_rng(0), 1, 5, 4)

    def test_view_dissemination_covers(self) -> None:
        outcome = run(flat_factory(1.0), n=64, fanout=5, rounds=8,
                      views=build_views(64, 8, np.random.default_rng(2)))
        assert outcome.delivered_count > 60


# -- differential properties for the two per-pair reductions -----------------

_ARRIVAL_QUEUES = ("pull_early", "eager", "pull_late")


@st.composite
def _arrival_slots(draw):
    """One slot's MSG traffic over a partly infected population."""
    n = draw(st.integers(4, 48))
    origin = draw(st.integers(0, n - 1))
    infected = draw(st.sets(st.integers(0, n - 1), max_size=n - 1)) - {origin}
    receipt_round = {node: draw(st.integers(1, 6)) for node in sorted(infected)}
    origin_received = draw(st.booleans())
    # Only nodes that hold the payload send it; anyone may be a target.
    packet = st.tuples(
        st.sampled_from(sorted(infected | {origin})), st.integers(0, n - 1)
    )
    # Up to 3n packets a batch: both sides of the n / 4 threshold
    # between the np.unique and the scatter first-occurrence branches.
    batches = st.lists(st.lists(packet, max_size=3 * n), max_size=2)
    traffic = {name: draw(batches) for name in _ARRIVAL_QUEUES}
    return n, origin, receipt_round, origin_received, traffic


@settings(max_examples=200, deadline=None)
@given(slot=_arrival_slots())
def test_arrival_resolver_matches_per_packet_loop(slot) -> None:
    n, origin, receipt_round, origin_received, traffic = slot
    t = 9
    state = MessageState(n)
    state.deliver_slot[origin] = 0
    state.carried_round[origin] = 0
    if origin_received:
        state.received_slot[origin] = 2
    for node, rnd in receipt_round.items():
        state.deliver_slot[node] = state.received_slot[node] = rnd
        state.carried_round[node] = rnd
    queues = _SlotQueues(None, None)
    for name in _ARRIVAL_QUEUES:
        for batch in traffic[name]:
            src = np.array([s for s, _ in batch], dtype=np.int32)
            dst = np.array([d for _, d in batch], dtype=np.int32)
            queues.push(getattr(queues, name), t, (src, dst))

    # The reference: one packet at a time, in event-queue order.
    deliver = state.deliver_slot.tolist()
    received = state.received_slot.tolist()
    carried = state.carried_round.tolist()
    payload_received = [0] * n
    delivered_now = []
    for name in _ARRIVAL_QUEUES:
        for batch in traffic[name]:
            for src, dst in batch:
                payload_received[dst] += 1
                if received[dst] != -1:
                    continue
                received[dst] = t
                if deliver[dst] == -1:  # the origin delivered locally
                    deliver[dst] = t
                    carried[dst] = carried[src] + 1
                    delivered_now.append(dst)

    scratch = SlotScratch(n)
    newly = _process_arrivals(state, queues, t, scratch)
    assert newly.tolist() == sorted(delivered_now)
    assert state.deliver_slot.tolist() == deliver
    assert state.received_slot.tolist() == received
    assert state.carried_round.tolist() == carried
    assert state.payload_received.tolist() == payload_received
    assert not queues.busy()
    assert (scratch.first_pos == -1).all()


def _stable_sort_sample_without_replacement(rng, rows, k, population):
    """The kernel's sampler before the pair-path rewrite, verbatim."""
    if k > population:
        raise ValueError(f"cannot draw {k} distinct from {population}")
    draws = rng.integers(0, population, size=(rows, k), dtype=np.int64)
    if k == 1:
        return draws
    pending = np.arange(rows, dtype=np.int64)
    unchecked = draws
    while True:
        ordered = np.sort(unchecked, axis=1, kind="stable")
        bad = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        if not bad.any():
            return draws
        pending = pending[bad]
        unchecked = rng.integers(
            0, population, size=(pending.size, k), dtype=np.int64
        )
        draws[pending] = unchecked


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(0, 96),
    # k runs up to the whole population while that is small enough for
    # rejection sampling to terminate quickly (6! / 6^6 = 1.5 % of rows
    # accepted per pass): the redraw-heavy regime.
    shape=st.integers(1, 40).flatmap(
        lambda population: st.tuples(
            st.just(population), st.integers(1, min(population, 6))
        )
    ),
)
def test_sampler_draws_and_rng_state_match_stable_sort_version(
    seed, rows, shape
) -> None:
    population, k = shape
    rng, legacy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    draws = _sample_without_replacement(rng, rows, k, population)
    legacy = _stable_sort_sample_without_replacement(
        legacy_rng, rows, k, population
    )
    assert draws.shape == legacy.shape
    assert np.array_equal(draws, legacy)
    assert rng.bit_generator.state == legacy_rng.bit_generator.state
