"""Round-kernel mechanics on small, hand-checkable cases, and the two
per-pair reductions (arrival resolution, distinct-row sampling) and the
request path (timer wheel, live-rows advert log, ordered winner pick)
held to slow reference implementations over hypothesis-generated inputs
-- the pattern of ``tests/sim/test_events_property.py``."""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings, strategies as st

from repro.experiments.scenarios import (
    flat_factory,
    hybrid_factory,
    radius_factory,
    ranked_factory,
    ttl_factory,
)
from repro.failures.injection import FailurePlan
from repro.megasim import rounds
from repro.megasim.adapter import (
    CompiledFaults,
    PlaneTopology,
    UniformTopology,
    build_views,
    compile_faults,
)
from repro.megasim.rounds import (
    MessageOutcome,
    SlotScratch,
    _clear_received,
    _due_nodes,
    _fire_requests,
    _process_adverts,
    _process_arrivals,
    _requester_metric,
    _rows,
    _sample_without_replacement,
    _SlotQueues,
    disseminate,
    sample_targets,
)
from repro.megasim.state import NODE_DTYPE, MessageState
from repro.megasim.strategies import compile_strategy
from tests.megasim.test_determinism import outcome_bytes, uniform_loss

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


# -- node-side resolution, held to the race it skips ---------------------------
#
# ``_process_arrivals`` / ``_first_occurrences`` before uniform-round slots
# were resolved from hit counts, verbatim (module names qualified).


def _racing_process_arrivals(state, queues, t, scratch):
    """Apply this slot's MSG batches; returns the newly delivered nodes
    in ascending id order."""
    arrivals = queues.pop(t, queues.pull_early, queues.eager, queues.pull_late)
    if arrivals is None:
        return np.empty(0, dtype=NODE_DTYPE)
    # numpy widens an int32 index array on every use; do it once.
    src, dst = arrivals[0], arrivals[1].astype(np.intp)
    rounds._accumulate(state.payload_received, dst)
    # Everything below runs on the packets to not-yet-received nodes only.
    fresh = np.flatnonzero(np.take(state.received_slot, dst) == -1)
    if fresh.size == 0:
        return np.empty(0, dtype=NODE_DTYPE)
    winners, first = _racing_first_occurrences(np.take(dst, fresh), scratch)
    state.received_slot[winners] = t
    # The origin already delivered locally; its first MSG arrival is a
    # scheduler-layer duplicate and changes nothing at the gossip layer.
    undelivered = np.take(state.deliver_slot, winners) == -1
    winners, first = winners[undelivered], first[undelivered]
    state.deliver_slot[winners] = t
    state.carried_round[winners] = state.carried_round[src[fresh[first]]] + 1
    return winners.astype(NODE_DTYPE, copy=False)


def _racing_first_occurrences(dst, scratch):
    """``np.unique(dst, return_index=True)`` without the sort."""
    if dst.size < scratch.n // 4:
        return np.unique(dst, return_index=True)
    first_pos = scratch.first_pos
    positions = scratch.arange(dst.size)
    # Writing positions in descending order means the lowest index --
    # the first occurrence -- lands last and wins.
    first_pos[dst[::-1]] = positions[::-1]
    winners = np.flatnonzero(first_pos >= 0)
    first = first_pos[winners]
    first_pos[winners] = -1  # restore the rest state for the next slot
    return winners, first


def _columns(packets):
    src = np.array([s for s, _ in packets], dtype=NODE_DTYPE)
    dst = np.array([d for _, d in packets], dtype=NODE_DTYPE)
    return src, dst


@st.composite
def _tagged_arrival_slots(draw):
    """One slot whose eager batch comes from senders of one round (tagged)
    or of several (untagged), with or without pull answers and loss."""
    n = draw(st.integers(4, 48))
    origin = draw(st.integers(0, n - 1))
    infected = draw(st.sets(st.integers(0, n - 1), max_size=n - 1)) - {origin}
    carried = {origin: 0}
    carried.update({node: draw(st.integers(1, 3)) for node in sorted(infected)})
    origin_received = draw(st.booleans())
    senders = sorted(carried)
    sent_round = None
    if draw(st.booleans()):
        sent_round = draw(st.sampled_from(sorted(set(carried.values()))))
        senders = [node for node in senders if carried[node] == sent_round]
    # Up to 3n packets: both sides of the n >> _NODE_SIDE_SHIFT switch,
    # duplicate destinations, and the origin's own copy coming back.
    eager = draw(st.lists(
        st.tuples(st.sampled_from(senders), st.integers(0, n - 1)),
        max_size=3 * n,
    ))
    answer = st.tuples(st.sampled_from(sorted(carried)), st.integers(0, n - 1))
    pulls = {
        name: draw(st.lists(st.lists(answer, max_size=n), max_size=1))
        for name in ("pull_early", "pull_late")
    }
    loss = draw(st.sampled_from([0.0, 0.0, 0.4]))
    seed = draw(st.integers(0, 2**16))
    return n, origin, carried, origin_received, sent_round, eager, pulls, loss, seed


@settings(max_examples=300, deadline=None)
@given(slot=_tagged_arrival_slots())
def test_node_side_arrivals_match_the_race(slot) -> None:
    """Kills, one token each: ``!=`` for ``==`` in the forward step's tag
    (via the ``disseminate`` property below), ``<`` for ``>=`` at the
    switch, ``!= -1`` for ``== -1`` in the delivered filter, ``r + 2``
    for ``r + 1``."""
    n, origin, carried, origin_received, sent_round, eager, pulls, loss, seed = slot
    t = 9

    def slot_state():
        state = MessageState(n)
        for node, rnd in carried.items():
            state.deliver_slot[node] = state.carried_round[node] = rnd
            if node != origin:
                state.received_slot[node] = rnd
        if origin_received:
            state.received_slot[origin] = 2
        faults = CompiledFaults(n, loss_probability=loss) if loss else None
        queues = _SlotQueues(faults, np.random.default_rng(seed))
        for name, batches in pulls.items():
            for batch in batches:
                queues.push(getattr(queues, name), t, _columns(batch))
        queues.push(queues.eager, t, _columns(eager), sent_round=sent_round)
        return state, queues

    expected, queues = slot_state()
    expected_newly = _racing_process_arrivals(expected, queues, t, SlotScratch(n))

    state, queues = slot_state()
    batches = queues.eager.get(t, [])
    pulled = t in queues.pull_early or t in queues.pull_late
    node_side = (
        sent_round is not None
        and not pulled
        and len(batches) == 1
        and batches[0][1].size >= n >> rounds._NODE_SIDE_SHIFT
    )
    scratch = SlotScratch(n)
    with mock.patch.object(
        rounds, "_accumulate", wraps=rounds._accumulate
    ) as racing:
        newly = _process_arrivals(state, queues, t, scratch)
    assert racing.called == (bool(batches or pulled) and not node_side)
    assert newly.dtype == expected_newly.dtype
    assert newly.tolist() == expected_newly.tolist()
    for column in (
        "received_slot", "deliver_slot", "carried_round", "payload_received"
    ):
        assert getattr(state, column).tobytes() == getattr(expected, column).tobytes()
    assert not queues.busy() and not queues.eager_round
    assert (scratch.first_pos == -1).all()


def test_uniform_slot_delivers_every_hit_node_at_the_next_round() -> None:
    # Senders 3 and 5 carry round 2; node 3 is hit again (already
    # received), the origin's own copy comes back, 7 is hit twice.
    state = MessageState(N)
    state.deliver_slot[0] = state.carried_round[0] = 0
    for node in (3, 5):
        state.deliver_slot[node] = state.received_slot[node] = 2
        state.carried_round[node] = 2
    queues = _SlotQueues(None, None)
    packets = [(3, 7), (5, 7), (5, 0), (3, 3), (5, 12)]
    queues.push(queues.eager, 4, _columns(packets), sent_round=2)
    with mock.patch.object(rounds, "_first_occurrences") as race:
        newly = _process_arrivals(state, queues, 4, SlotScratch(N))
    race.assert_not_called()
    assert newly.tolist() == [7, 12]
    assert state.carried_round[[7, 12]].tolist() == [3, 3]
    assert state.deliver_slot[[0, 3, 7, 12]].tolist() == [0, 2, 4, 4]
    assert state.received_slot[[0, 3]].tolist() == [4, 2]
    assert state.payload_received[[0, 3, 7, 12]].tolist() == [1, 1, 2, 1]


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 60),
    capacity=st.integers(1, 8),
    chunks=st.lists(
        st.lists(st.tuples(st.integers(0, 59), st.integers(0, 59)), max_size=50),
        max_size=4,
    ),
)
def test_link_log_finalize_matches_np_unique(n, capacity, chunks) -> None:
    log = rounds._LinkLog(capacity)
    keys = []
    for chunk in chunks:
        src, dst = _columns([(s % n, d % n) for s, d in chunk])
        log.append(src, dst)
        keys.extend((src.astype(np.int64) * n + dst).tolist())
    expected_keys, expected_sends = np.unique(
        np.array(keys, dtype=np.int64), return_counts=True
    )
    link_keys, link_sends = log.finalize(n)
    assert link_keys.dtype == np.int64 and link_sends.dtype == np.int64
    assert link_keys.tobytes() == expected_keys.tobytes()
    assert link_sends.tobytes() == expected_sends.astype(np.int64).tobytes()


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


# -- differential property for the request path ------------------------------
#
# The request path as it stood before the timer wheel, verbatim (names
# prefixed, long docstrings cut): full-population scans for due and
# received entries, an append-only advert log re-read whole by every
# fire, a 3-key lexsort + ``np.unique`` winner pick.


class _AppendOnlyAdvertLog:
    """``state.AdvertLog`` before it dropped dead rows."""

    __slots__ = ("size", "_dst", "_src", "_metric", "_epoch", "_asked")

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.size = 0
        self._dst = np.empty(capacity, NODE_DTYPE)
        self._src = np.empty(capacity, NODE_DTYPE)
        self._metric = np.empty(capacity, np.float64)
        self._epoch = np.empty(capacity, np.int32)
        self._asked = np.empty(capacity, np.bool_)

    def _grow(self, needed: int) -> None:
        capacity = self._dst.shape[0]
        if self.size + needed <= capacity:
            return
        while capacity < self.size + needed:
            capacity *= 2
        for name in ("_dst", "_src", "_metric", "_epoch", "_asked"):
            old = getattr(self, name)
            grown = np.empty(capacity, old.dtype)
            grown[: self.size] = old[: self.size]
            setattr(self, name, grown)

    def append(self, dst, src, metric, epoch) -> None:
        count = int(dst.shape[0])
        if count == 0:
            return
        self._grow(count)
        stop = self.size + count
        self._dst[self.size : stop] = dst
        self._src[self.size : stop] = src
        self._metric[self.size : stop] = metric
        self._epoch[self.size : stop] = epoch
        self._asked[self.size : stop] = False
        self.size = stop

    @property
    def dst(self):
        return self._dst[: self.size]

    @property
    def src(self):
        return self._src[: self.size]

    @property
    def metric(self):
        return self._metric[: self.size]

    @property
    def epoch(self):
        return self._epoch[: self.size]

    @property
    def asked(self):
        return self._asked[: self.size]

    def mark_asked(self, rows) -> None:
        self._asked[rows] = True


def _full_scan_due_nodes(state, t, early):
    if state.adverts.size == 0:
        return np.empty(0, dtype=NODE_DTYPE)
    due = state.request_active & (state.request_due == t)
    if early:
        due &= state.request_armed < t
        due &= (state.received_slot == -1) | (state.received_slot == t)
    else:
        due &= state.request_armed == t
    return np.flatnonzero(due).astype(NODE_DTYPE, copy=False)


def _full_scan_fire_requests(state, strategy, t, due, scratch):
    empty = np.empty(0, dtype=NODE_DTYPE)
    if due.size == 0:
        return empty, empty
    log = state.adverts
    # The due-node membership mask lives in scratch; every bit set here
    # is cleared again before returning (dropped and chosen nodes are
    # both subsets of ``due``).
    firing = scratch.flag
    firing[due] = True
    log_dst = log.dst
    rows = np.flatnonzero(
        firing[log_dst]
        & (log.epoch == state.epoch[log_dst])
        & ~log.asked
    )
    if rows.size:
        row_dst = log_dst[rows]
        if strategy.nearest_source:
            order = np.lexsort((rows, log.metric[rows], row_dst))
            rows, row_dst = rows[order], row_dst[order]
        chosen_dst, first = np.unique(row_dst, return_index=True)
        chosen_rows = rows[first]
        log.mark_asked(chosen_rows)
    else:
        chosen_dst = np.empty(0, dtype=NODE_DTYPE)
        chosen_rows = np.empty(0, dtype=np.int64)
    # Entries with nothing left to ask clear themselves.
    exhausted = firing
    exhausted[chosen_dst] = False
    state.drop_entries(np.flatnonzero(exhausted))
    firing[due] = False
    if chosen_dst.size == 0:
        return empty, empty
    state.request_armed[chosen_dst] = t
    state.request_due[chosen_dst] = t + strategy.retry_rounds
    state.request_attempts[chosen_dst] += 1
    return chosen_dst.astype(NODE_DTYPE, copy=False), log.src[chosen_rows]


def _full_scan_clear_received(state, t):
    if state.adverts.size:  # no advert logged yet, no entry to cancel
        state.drop_entries(
            np.flatnonzero(state.request_active & (state.received_slot == t))
        )


def _full_scan_process_adverts(state, strategy, queues, t, delay):
    adverts = queues.pop(t, queues.advert)
    if adverts is None:
        return
    # Adverts are ignored once a MSG packet has arrived (the scheduler's
    # ``received`` check -- NOT gossip delivery: the origin is still
    # advertisable).
    src, dst = _rows(
        adverts, np.flatnonzero(state.received_slot[adverts[1]] == -1)
    )
    if dst.size == 0:
        return
    metric = (
        _requester_metric(strategy, dst, src)
        if strategy.nearest_source
        else np.zeros(dst.shape[0], np.float64)
    )
    state.adverts.append(dst, src, metric, state.epoch[dst])
    fresh = np.unique(dst[~state.request_active[dst]])
    if fresh.size:
        state.request_active[fresh] = True
        state.request_armed[fresh] = t
        state.request_due[fresh] = t + delay
        state.request_attempts[fresh] = 0


def _full_scan_state(n: int) -> MessageState:
    """The state the reference path runs on.  It arms no timer wheel (it
    finds timers by scanning), so one never-popped bucket stands in for
    "a timer is pending" and keeps ``disseminate``'s lost-timer check --
    which reads the wheel -- out of the comparison."""
    state = MessageState(n)
    state.adverts = _AppendOnlyAdvertLog()
    state.timers[-1] = []
    return state


def _full_scan_kernel():
    """``disseminate`` running the reference request path."""
    return mock.patch.multiple(
        rounds,
        MessageState=_full_scan_state,
        _due_nodes=_full_scan_due_nodes,
        _fire_requests=_full_scan_fire_requests,
        _clear_received=lambda state, t, newly, origin: (
            _full_scan_clear_received(state, t)
        ),
        _process_adverts=_full_scan_process_adverts,
    )


#: Radius and Hybrid pick the nearest source, the other three the first
#: advertiser; the drawn first-request delay and retry period are patched
#: into whatever schedule constants the factory compiles to.
_PULL_STRATEGIES = {
    "radius": radius_factory(),
    "hybrid": hybrid_factory(),
    "ttl": ttl_factory(1),
    "ranked": ranked_factory(),
    "flat": flat_factory(0.3),
}


def _pull_run(n, degree, loss, crashes, name, snap, delay, retry, seed) -> bytes:
    """One message over a small lossy plane, built only from the case.
    ``snap`` moves the nodes onto a 5 x 5 lattice, where equal distances
    are common: nearest-source ties, broken by advert arrival order."""
    topology = PlaneTopology(n, seed=seed, side=100.0)
    if snap:
        topology = PlaneTopology.from_positions(
            *(np.round(axis / 25.0) * 25.0 for axis in topology.positions),
            side=100.0,
        )
    strategy = replace(
        compile_strategy(_PULL_STRATEGIES[name], topology),
        first_delay_rounds=delay,
        retry_rounds=retry,
    )
    faults = compile_faults(
        n, seed, failure=FailurePlan(fraction=crashes), gray=uniform_loss(loss)
    )
    alive = np.ones(n, dtype=bool)
    if faults is not None and faults.crashed is not None:
        alive = ~faults.crashed
    outcome = disseminate(
        topology, strategy, int(np.flatnonzero(alive)[seed % alive.sum()]),
        fanout=min(4, degree), rounds=6,
        rng=np.random.default_rng(seed),
        views=build_views(n, degree, np.random.default_rng(seed + 1)),
        track_links=True, faults=faults,
        loss_rng=np.random.default_rng(seed + 2),
    )
    return outcome_bytes(SimpleNamespace(outcomes=[outcome]))[0]


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(12, 80),
    degree=st.integers(3, 10),
    loss=st.sampled_from([0.0, 0.1, 0.3, 0.5]),
    crashes=st.sampled_from([0.0, 0.1, 0.3]),
    name=st.sampled_from(sorted(_PULL_STRATEGIES)),
    snap=st.booleans(),
    delay=st.sampled_from([0, 2, 3]),
    retry=st.integers(3, 5),
    seed=st.integers(0, 2**16),
)
def test_request_path_matches_full_scan_version(
    n, degree, loss, crashes, name, snap, delay, retry, seed
) -> None:
    case = (n, degree, loss, crashes, name, snap, delay, retry, seed)
    with _full_scan_kernel():
        expected = _pull_run(*case)
    assert _pull_run(*case) == expected


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(12, 80),
    degree=st.integers(3, 10),
    loss=st.sampled_from([0.0, 0.1, 0.3]),
    crashes=st.sampled_from([0.0, 0.1]),
    name=st.sampled_from(sorted(_PULL_STRATEGIES)),
    seed=st.integers(0, 2**16),
)
def test_disseminate_matches_the_racing_resolver(
    n, degree, loss, crashes, name, seed
) -> None:
    # Pull answers and eager forwards of several rounds meet in these
    # runs, so a forward step tagging a mixed-round batch shows.
    case = (n, degree, loss, crashes, name, False, 0, 3, seed)
    with mock.patch.object(rounds, "_process_arrivals", _racing_process_arrivals):
        expected = _pull_run(*case)
    assert _pull_run(*case) == expected


def _waiting_state(n: int, strategy, t: int, adverts) -> MessageState:
    """A state in which the ``(src, dst)`` IHAVEs of ``adverts`` have just
    landed at slot ``t`` and armed their zero-delay requests."""
    state = MessageState(n)
    queues = _SlotQueues(None, None)
    src, dst = (np.array(column, dtype=NODE_DTYPE) for column in zip(*adverts))
    queues.push(queues.advert, t, (src, dst))
    _process_adverts(state, strategy, queues, t, 0)
    return state


def test_due_nodes_are_distinct_ascending_and_current() -> None:
    strategy = compile_strategy(flat_factory(0.0), TOPOLOGY)
    # Node 5 is advertised twice, so it is filed twice; 3 and 9 once.
    state = _waiting_state(N, strategy, 4, [(0, 5), (1, 3), (2, 5), (1, 9)])
    state.drop_entries(np.array([9]))  # cancelled: its id goes stale
    assert _due_nodes(state, 4, early=True).tolist() == []  # armed this slot
    state.timers[4] = [np.array([9, 5, 3, 5], dtype=NODE_DTYPE)]
    assert _due_nodes(state, 4, early=False).tolist() == [3, 5]
    assert 4 not in state.timers


def test_entry_outliving_every_log_row_is_cleared_by_first_msg() -> None:
    # Trap 3 of the live-rows log: node 3 asked its only source, the log
    # then compacted to zero rows, and 3's entry -- still active, waiting
    # on its retry timer -- must be cancelled by its first MSG all the
    # same: "the log is empty" does not mean "no entry exists".
    strategy = compile_strategy(flat_factory(0.0), TOPOLOGY)
    state = _waiting_state(N, strategy, 1, [(0, 3)])
    scratch = SlotScratch(N)
    state.deliver_slot[0] = state.carried_round[0] = 0
    fired = _fire_requests(
        state, strategy, 1, _due_nodes(state, 1, early=False), scratch
    )
    assert [column.tolist() for column in fired] == [[3], [0]]
    state.adverts.live(state.epoch)
    assert state.adverts.size == 0 and state.request_active[3]
    queues = _SlotQueues(None, None)
    queues.push(queues.eager, 3, fired[::-1])  # the pull answer, 0 -> 3
    newly = _process_arrivals(state, queues, 3, scratch)
    _clear_received(state, 3, newly, origin=0)
    assert newly.tolist() == [3] and not state.request_active[3]
    due = 1 + strategy.retry_rounds
    assert _due_nodes(state, due, early=True).size == 0


def test_lost_timer_fails_loudly_instead_of_spinning(monkeypatch) -> None:
    # Every active entry owns one armed timer; a kernel bug that loses
    # one used to leave ``disseminate`` spinning on an entry nothing
    # would ever fire or clear.
    process_adverts = rounds._process_adverts

    def lose_the_buckets(state, *args) -> None:
        process_adverts(state, *args)
        state.timers.clear()

    monkeypatch.setattr(rounds, "_process_adverts", lose_the_buckets)
    with pytest.raises(
        RuntimeError,
        match=r"slot 1: 15 request entries active with no timer armed "
        r"and nothing in flight: \[1, 2, 3, 4, 5\]",
    ):
        run(flat_factory(0.0))
