"""The vectorized epidemic round kernel.

One call to :func:`disseminate` runs a single message's epidemic to
completion over ``n`` nodes in synchronous *slots*, each slot one
network latency long.  Everything a slot does is a whole-array
operation: deliveries resolve via a first-occurrence reduction, the
strategy classifies all (sender, target) pairs at once, and IHAVE/IWANT
bookkeeping lives in the :class:`~repro.megasim.state.MessageState`
arrays plus one shared :class:`~repro.megasim.state.AdvertLog` instead
of per-node timer objects.

**The pair path.**  Ten of every eleven sampled (sender, target) pairs
land on an already-infected node and leave only a counter behind, so a
packet is two int32 columns and carries no round: the paper's Fig. 3
forwards with ``r + 1``, ``r`` being the forwarder's own receipt round,
and ``carried_round[src]`` is written once (at delivery; the origin's at
slot 0), so the round of every packet -- eager forward, IHAVE, and the
pull answer that carries the advertised round -- is
``carried_round[src] + 1`` whenever it is read: for arrival winners.
A forward step whose senders all carry one round tags its eager batch
with it, and a slot whose arrivals are just that batch has no race to
run: its winners are the hit nodes (:func:`_process_arrivals`).

**The pull path** costs what fires in the slot, like the event kernel's
``RequestQueue``: due entries are popped from a slot timer wheel, not
found by scanning the population; a first MSG cancels the entries of
that slot's deliveries; and a fire reads an advert log that holds only
the sources still in play (:mod:`repro.megasim.state`) -- so no step may
shortcut on an empty log: an entry can outlive every row of it.

Equivalence with the event kernel (uniform latency ``L``, no NIC
serialization, no jitter, oracle sampling): every packet sent in slot
``t`` arrives in slot ``t + 1``, so the event kernel *is* this slot
machine.  The ordering rules below are derived from the event queue's
FIFO tie-break at equal timestamps:

- Same-slot MSG arrivals race; the first processed wins and defines the
  carried round.  Pull answers to *early*-fired IWANTs are processed
  before eager arrivals and answers to *late*-fired ones after them,
  mirroring where the IWANT sat in the previous slot's event queue
  (see :class:`_SlotQueues`).
- A timer armed in an *earlier* slot -- a positive-delay first request
  or any retry (armed a full retry period back) -- precedes the due
  slot's packet arrivals: the IWANT still goes out even when a copy
  lands in the very same slot (the pull answer then arrives as a
  duplicate), and advertisements landing *in* the fire slot are not yet
  known sources.  First-request delays of exactly one slot are
  ambiguous in the event kernel (timer and arrivals are armed in the
  same slot) and are avoided by exact-differential configurations.
- A zero-delay first request is scheduled *during* advert processing
  (``sim.schedule(0, ...)``), so it fires after everything else in the
  slot: an eager delivery in the advert's slot cancels the request, and
  same-slot adverts are already known sources.

**Retries.**  Each fire asks one not-yet-asked source (FIFO: first
advertiser; nearest: lowest metric, earliest-on-ties -- what
``min(sources, key=metric)`` picks over arrival order) and re-arms the
timer ``retry_rounds`` ahead, exactly like ``RequestQueue._fire``.  A
fire that finds every live source already asked drops the entry instead
(sources forgotten, modeled by an epoch bump); a later advertisement
re-queues the node fresh with ``first_delay_rounds``.  In a loss-free
run no retry can fire (a pull completes in 2 slots, the retry period
exceeds 2 by construction), which is why the pre-fault kernel could
schedule each request at most once; with loss or crashes injected
(``faults``), retries are load-bearing and counted in
``MessageOutcome.retries`` (the event kernel's ``retries_sent``).

**Faults.**  A :class:`~repro.megasim.adapter.CompiledFaults` filters
every packet batch *after* send-side accounting (``on_send`` fires
before the fabric's drop checks, so sent counters include dropped
packets) and before queueing for arrival.  Bernoulli loss draws come
from ``loss_rng`` -- a dedicated stream -- so fault-free outcomes are
byte-identical with or without the loss machinery armed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.megasim.adapter import CompiledFaults, VectorTopology
from repro.megasim.state import (
    NODE_DTYPE,
    MessageState,
    run_lengths,
    run_starts,
)
from repro.megasim.strategies import CompiledStrategy

#: One batch of in-flight packets: aligned (src, dst) columns.  The round
#: a packet carries is ``carried_round[src] + 1`` (module docstring).
Batch = Tuple[NDArray[np.int32], NDArray[np.int32]]

#: Cap on the all-pairs target expansion of oracle full-fanout sends;
#: beyond this, use a partial fanout or view-based sampling.
_FULL_FANOUT_LIMIT = 1 << 24

#: A uniform-round arrival batch of at least ``n >> _NODE_SIDE_SHIFT``
#: packets is resolved by O(n) passes over the population instead of
#: O(batch) passes over its packets.
_NODE_SIDE_SHIFT = 3


def receipt_round_histogram(
    carried_round: NDArray[np.int32], deliver_slot: NDArray[np.int32]
) -> Dict[int, int]:
    """``{round: deliveries}`` over delivered nodes, like the event
    kernel's per-node ``receipt_rounds`` counters summed."""
    delivered = carried_round[deliver_slot >= 0]
    if delivered.size == 0:
        return {}
    counts = np.bincount(delivered)
    return {int(r): int(c) for r, c in enumerate(counts) if c > 0}


@dataclass
class MessageOutcome:
    """Everything observable about one finished message.

    Payload links are stored columnar -- ``link_keys`` holds the sorted
    distinct ``src * n + dst`` keys of every link that carried payload,
    ``link_sends`` the aligned transmission counts -- so a million-node
    tracked run costs two flat arrays, not a Python dict.  The
    :attr:`link_counts` dict view is derived on demand for the small-N
    differential suite.
    """

    origin: int
    deliver_slot: NDArray[np.int32]
    carried_round: NDArray[np.int32]
    payload_sent: NDArray[np.int64]
    payload_received: NDArray[np.int64]
    msg_sent: int
    ihave_sent: int
    iwant_sent: int
    slots_elapsed: int
    link_keys: Optional[NDArray[np.int64]] = None
    link_sends: Optional[NDArray[np.int64]] = None
    #: IWANTs past the first per entry (the event kernel's
    #: ``RequestQueue.retries_sent``); 0 in any loss-free run.
    retries: int = 0

    @property
    def delivered_count(self) -> int:
        return int(np.count_nonzero(self.deliver_slot >= 0))

    @property
    def link_counts(self) -> Optional[Dict[Tuple[int, int], int]]:
        """Per-link payload counts as ``{(src, dst): count}`` (small N).

        Materializes a dict per call -- fine for the differential
        suite, not meant for 10^5+ nodes.
        """
        if self.link_keys is None or self.link_sends is None:
            return None
        n = self.deliver_slot.shape[0]
        return {
            (int(key // n), int(key % n)): int(count)
            for key, count in zip(
                self.link_keys.tolist(), self.link_sends.tolist()
            )
        }

    def receipt_round_histogram(self) -> Dict[int, int]:
        return receipt_round_histogram(self.carried_round, self.deliver_slot)


@dataclass
class _SlotQueues:
    """The network between two slots: the fault filter every sent batch
    passes, and per-slot buffers popped as the clock reaches each slot.

    Pull answers keep two queues because their position among a slot's
    MSG arrivals is fixed by event-queue FIFO order: an IWANT fired in
    the *early* phase (timer armed in an earlier slot) is the first
    packet its source processes next slot, so its answer is enqueued --
    and therefore arrives -- *before* that slot's eager forwards; an
    IWANT fired in the *late* phase (zero-delay first request) trails
    the whole arrival phase, so its answer lands *after* them.
    """

    faults: Optional[CompiledFaults]
    loss_rng: Optional[np.random.Generator]
    eager: Dict[int, List[Batch]] = field(default_factory=dict)
    pull_early: Dict[int, List[Batch]] = field(default_factory=dict)
    pull_late: Dict[int, List[Batch]] = field(default_factory=dict)
    advert: Dict[int, List[Batch]] = field(default_factory=dict)
    #: The carried round every sender of a forward step's eager batch
    #: shares, by arrival slot; no entry when the senders' rounds differ.
    eager_round: Dict[int, int] = field(default_factory=dict)

    def surviving(self, batch: Batch) -> Batch:
        """The packets of ``batch`` that the fault filter lets arrive."""
        if self.faults is None:
            return batch
        keep = self.faults.deliver_mask(*batch, self.loss_rng)
        return _rows(batch, np.flatnonzero(keep))

    def push(
        self,
        queue: Dict[int, List[Batch]],
        slot: int,
        batch: Batch,
        sent_round: Optional[int] = None,
    ) -> None:
        """Send ``batch`` (already counted as sent) to arrive at ``slot``;
        ``sent_round`` tags it with the carried round of all its senders."""
        batch = self.surviving(batch)
        if batch[0].size:
            queue.setdefault(slot, []).append(batch)
            if sent_round is not None:
                self.eager_round[slot] = sent_round

    def pop_arrivals(self, slot: int) -> Tuple[Optional[Batch], Optional[int]]:
        """The slot's MSG arrivals in processing order, and the round
        their senders all carry when the arrivals are a single tagged
        eager batch (``None`` otherwise)."""
        sent_round = self.eager_round.pop(slot, None)
        if (
            slot in self.pull_early
            or slot in self.pull_late
            or len(self.eager.get(slot, ())) != 1
        ):
            sent_round = None
        arrivals = self.pop(slot, self.pull_early, self.eager, self.pull_late)
        return arrivals, sent_round

    def pop(self, slot: int, *queues: Dict[int, List[Batch]]) -> Optional[Batch]:
        """The slot's batches of ``queues``, in that order, as one."""
        batches = [batch for queue in queues for batch in queue.pop(slot, [])]
        if len(batches) < 2:
            return batches[0] if batches else None
        return (
            np.concatenate([b[0] for b in batches]),
            np.concatenate([b[1] for b in batches]),
        )

    def busy(self) -> bool:
        return bool(
            self.eager or self.pull_early or self.pull_late or self.advert
        )


def _rows(batch: Batch, rows: NDArray[np.intp]) -> Batch:
    return np.take(batch[0], rows), np.take(batch[1], rows)


def sample_targets(
    rng: np.random.Generator,
    senders: NDArray[np.int32],
    fanout: int,
    n: int,
    views: Optional[NDArray[np.int32]] = None,
) -> Tuple[NDArray[np.int32], NDArray[np.int32]]:
    """Gossip targets for every sender at once.

    Returns aligned ``(src, dst)`` arrays of ``len(senders) * k`` pairs,
    ``k = min(fanout, candidates)``, sender-major: one block of ``k``
    pairs per sender, in ``senders`` order.  Oracle mode
    (``views=None``) samples uniformly among the other ``n - 1`` nodes
    without replacement per sender -- full fanout returns everyone,
    mirroring ``OraclePeerSampler``.  View mode samples within each
    sender's static partial view row.
    """
    m = senders.shape[0]
    if views is not None:
        degree = views.shape[1]
        if fanout >= degree:
            dst = views[senders]
        else:
            cols = _sample_without_replacement(rng, m, fanout, degree)
            # One flat gather; int64 offsets (n * degree may pass 2^31).
            rows = senders.astype(np.int64) * degree
            dst = np.take(views.reshape(-1), rows[:, None] + cols)
    else:
        if fanout < n - 1:
            dst = _sample_without_replacement(rng, m, fanout, n - 1)
        elif m * (n - 1) > _FULL_FANOUT_LIMIT:
            raise ValueError(
                f"full fanout over {n} nodes with {m} senders expands to "
                f"{m * (n - 1)} pairs; use a partial fanout or views"
            )
        else:
            others = np.arange(n - 1, dtype=NODE_DTYPE)
            dst = np.broadcast_to(others, (m, n - 1)).copy()
        dst += dst >= senders[:, None]  # ids past the sender's own shift up
    src = np.repeat(senders, dst.shape[1]).astype(NODE_DTYPE, copy=False)
    return src, dst.reshape(-1)


def _sample_without_replacement(
    rng: np.random.Generator, rows: int, k: int, population: int
) -> NDArray[np.int32]:
    """``(rows, k)`` draws from ``range(population)``, distinct per row.

    Rejection sampling: draw, detect within-row duplicates via a sorted
    copy, redraw only the offending rows.  Conditioning on distinctness
    keeps the per-row distribution uniform over k-subsets; for gossip
    regimes (k well below the population) a handful of rounds suffice.
    Drawn as int64 (the pinned draw sequence), narrowed once: every
    population here is a node or view-column count.
    """
    if k > population:
        raise ValueError(f"cannot draw {k} distinct from {population}")
    draws = rng.integers(
        0, population, size=(rows, k), dtype=np.int64
    ).astype(NODE_DTYPE)
    if k == 1:
        return draws
    # Re-sort only the rows still being rejected: sorting consumes no
    # RNG and a row's redraw count is decided row-locally, so shrinking
    # the sorted working set leaves the draw sequence -- and therefore
    # every outcome -- bit-identical while cutting the dominant
    # O(rows log k) cost to the (geometrically vanishing) bad subset.
    # Only adjacent equality of *values* is read, so tie order is
    # unobservable and the unstable sort is safe.  It is read flat (a
    # strided 2-D compare plus row-wise ``any`` costs more than the
    # sort): a hit on a row's last column is the next row's value.
    pending = np.arange(rows, dtype=np.int64)
    unchecked = draws
    while True:
        ordered = np.sort(unchecked, axis=1).reshape(-1)
        hits = np.flatnonzero(ordered[1:] == ordered[:-1])
        hits = hits[hits % k != k - 1]
        if hits.size == 0:
            return draws
        bad = hits // k  # non-decreasing, one entry per hit
        pending = pending[bad[run_starts(bad)]]
        unchecked = rng.integers(
            0, population, size=(pending.size, k), dtype=np.int64
        )
        draws[pending] = unchecked


class SlotScratch:
    """Preallocated per-population buffers, reused across slots *and*
    messages.

    Two n-sized arrays (a first-occurrence index map and a due-node flag
    mask) allocated per slot are the dominant allocator traffic at
    10^5-10^6 nodes and dozens of messages per worker; one scratch
    instance per worker -- handed to every :func:`disseminate` call in a
    batch -- keeps them hot.  Each user restores its buffer to the rest
    state (``first_pos`` all ``-1``, ``flag`` all ``False``) before
    returning, writing only the entries it touched, so reuse cannot leak
    state between slots or messages.
    """

    __slots__ = ("n", "first_pos", "flag", "_arange")

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"need at least one node, got {n}")
        self.n = n
        self.first_pos: NDArray[np.int64] = np.full(n, -1, dtype=np.int64)
        self.flag: NDArray[np.bool_] = np.zeros(n, dtype=np.bool_)
        self._arange: NDArray[np.int64] = np.arange(1024, dtype=np.int64)

    def arange(self, count: int) -> NDArray[np.int64]:
        """``np.arange(count)`` served from a grow-only cached buffer."""
        if count > self._arange.shape[0]:
            capacity = self._arange.shape[0]
            while capacity < count:
                capacity *= 2
            self._arange = np.arange(capacity, dtype=np.int64)
        return self._arange[:count]


class _LinkLog:
    """Growable columnar log of payload sends, one (src, dst) per row.

    Replaces the per-batch ``np.unique``-into-dict link counting: the
    hot path just copies each batch into the log, and the distinct-link
    reduction runs once per message in :meth:`finalize`.
    """

    __slots__ = ("size", "_src", "_dst")

    def __init__(self, capacity: int = 4096) -> None:
        self.size = 0
        self._src: NDArray[np.int32] = np.empty(capacity, NODE_DTYPE)
        self._dst: NDArray[np.int32] = np.empty(capacity, NODE_DTYPE)

    def append(self, src: NDArray[np.int32], dst: NDArray[np.int32]) -> None:
        needed = self.size + src.shape[0]
        capacity = self._src.shape[0]
        if needed > capacity:
            while capacity < needed:
                capacity *= 2
            for name in ("_src", "_dst"):
                grown = np.empty(capacity, NODE_DTYPE)
                grown[: self.size] = getattr(self, name)[: self.size]
                setattr(self, name, grown)
        self._src[self.size: needed] = src
        self._dst[self.size: needed] = dst
        self.size = needed

    def finalize(
        self, n: int
    ) -> Tuple[NDArray[np.int64], NDArray[np.int64]]:
        """Sorted distinct ``src * n + dst`` keys + aligned send counts."""
        keys = self._src[: self.size].astype(np.int64)
        keys *= n
        keys += self._dst[: self.size]
        keys.sort()  # values only: ties unobservable
        starts = run_starts(keys)
        return keys[starts], run_lengths(starts, keys.shape[0])


def _accumulate(
    counts: NDArray[np.int64], index: NDArray[np.int32]
) -> None:
    """``counts[index] += 1`` with duplicate indices.

    ``np.add.at`` is exact but slow (per-element dispatch); for batches
    a decent fraction of the population, one ``np.bincount`` pass is an
    order of magnitude faster and computes the same integer sums.
    """
    if index.size >= counts.shape[0] >> 4:
        counts += np.bincount(index, minlength=counts.shape[0])
    else:
        np.add.at(counts, index, 1)


@dataclass
class _Counters:
    """Run-wide packet tallies (sender-side, pre-drop)."""

    msg_sent: int = 0
    ihave_sent: int = 0
    iwant_sent: int = 0
    retries: int = 0


def disseminate(
    topology: VectorTopology,
    strategy: CompiledStrategy,
    origin: int,
    fanout: int,
    rounds: int,
    rng: np.random.Generator,
    views: Optional[NDArray[np.int32]] = None,
    track_links: bool = False,
    faults: Optional[CompiledFaults] = None,
    loss_rng: Optional[np.random.Generator] = None,
    scratch: Optional[SlotScratch] = None,
) -> MessageOutcome:
    """Run one message's epidemic to completion; see the module docstring
    for the slot-ordering contract.

    ``scratch`` lets a caller running many messages over one topology
    (a worker draining a batch) reuse the slot buffers; omitted, a
    private instance is allocated.  Results are identical either way.
    """
    n = topology.size
    if not 0 <= origin < n:
        raise ValueError(f"origin {origin} out of range for {n} nodes")
    if fanout < 1:
        raise ValueError(f"fanout must be >= 1, got {fanout}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if faults is not None:
        if faults.n != n:
            raise ValueError(
                f"faults compiled for {faults.n} nodes, topology has {n}"
            )
        if faults.crashed is not None and faults.crashed[origin]:
            raise ValueError(f"origin {origin} is crash-stopped")
        if faults.needs_rng and loss_rng is None:
            raise ValueError(
                "faults with Bernoulli loss need a dedicated loss_rng"
            )
    if scratch is None:
        scratch = SlotScratch(n)
    elif scratch.n != n:
        raise ValueError(
            f"scratch sized for {scratch.n} nodes, topology has {n}"
        )
    state = MessageState(n)
    queues = _SlotQueues(faults, loss_rng)
    links: Optional[_LinkLog] = _LinkLog() if track_links else None
    counters = _Counters()
    delay = strategy.first_delay_rounds
    evaluator = strategy.evaluator

    # Slot 0: the origin delivers its own multicast at round 0.
    state.deliver_slot[origin] = 0
    state.carried_round[origin] = 0
    newly = np.array([origin], dtype=NODE_DTYPE)

    t = 0
    while True:
        # -- 1. MSG arrivals: first copy per node wins (t > 0) ----------
        if t > 0:
            newly = _process_arrivals(state, queues, t, scratch)

        # -- 2. early fires: timers armed in an earlier slot (delayed
        # first requests, every retry) precede this slot's arrivals, so
        # they fire even for nodes whose first MSG landed this very slot.
        early = _due_nodes(state, t, early=True)
        _emit_pulls(
            state, queues, counters, links, t,
            _fire_requests(state, strategy, t, early, scratch), late=False,
        )

        # -- 3. Clear(i): a first MSG arrival cancels the node's entry
        # (after the early timers it could not beat in the event queue).
        _clear_received(state, t, newly, origin)

        # -- 4. adverts: append sources, activate entries --------------
        _process_adverts(state, strategy, queues, t, delay)

        # -- 5. late fires: zero-delay first requests armed by this
        # slot's adverts fire after everything else in the slot.
        late = _due_nodes(state, t, early=False)
        _emit_pulls(
            state, queues, counters, links, t,
            _fire_requests(state, strategy, t, late, scratch), late=True,
        )

        # -- 6. forwards from nodes that delivered this slot: one block
        # of k pairs per (distinct) sender, so sends count per sender --
        carried = np.take(state.carried_round, newly)
        forwarding = carried < rounds
        senders = newly[forwarding]
        if senders.size:
            sender_rounds = carried[forwarding]
            pairs = src, dst = sample_targets(rng, senders, fanout, n, views)
            k = src.shape[0] // senders.shape[0]
            rnd = None
            if evaluator.uses_round:
                rnd = np.repeat(sender_rounds + 1, k)
            eager = evaluator.eager_mask(src, dst, rnd, rng)
            sent = int(np.count_nonzero(eager))
            counters.msg_sent += sent
            counters.ihave_sent += src.shape[0] - sent
            # An all-eager or all-lazy slot (every Flat 1.0 / 0.0 slot, a
            # TTL slot whose senders share a round) queues what it sampled.
            payload = adverts = (src[:0], dst[:0])
            if sent == src.shape[0]:
                payload = pairs
                state.payload_sent[senders] += k
            elif sent == 0:
                adverts = pairs
            else:
                payload = _rows(pairs, np.flatnonzero(eager))
                adverts = _rows(pairs, np.flatnonzero(~eager))
                state.payload_sent[senders] += eager.reshape(-1, k).sum(axis=1)
            if links is not None:
                links.append(*payload)
            low = int(sender_rounds.min())
            uniform = low if low == int(sender_rounds.max()) else None
            queues.push(queues.eager, t + 1, payload, sent_round=uniform)
            queues.push(queues.advert, t + 1, adverts)

        if not queues.busy():
            if not state.request_active.any():
                break
            if not state.timers:  # every active entry owns an armed timer
                stuck = np.flatnonzero(state.request_active)
                raise RuntimeError(
                    f"slot {t}: {stuck.size} request entries active with no "
                    f"timer armed and nothing in flight: {stuck[:5].tolist()}"
                )
        t += 1

    link_keys, link_sends = links.finalize(n) if links is not None else (None, None)
    return MessageOutcome(
        origin=origin,
        deliver_slot=state.deliver_slot,
        carried_round=state.carried_round,
        payload_sent=state.payload_sent,
        payload_received=state.payload_received,
        msg_sent=counters.msg_sent,
        ihave_sent=counters.ihave_sent,
        iwant_sent=counters.iwant_sent,
        slots_elapsed=t,
        link_keys=link_keys,
        link_sends=link_sends,
        retries=counters.retries,
    )


def _process_arrivals(
    state: MessageState, queues: _SlotQueues, t: int, scratch: SlotScratch
) -> NDArray[np.int32]:
    """Apply this slot's MSG batches; returns the newly delivered nodes
    in ascending id order.

    When every arriving packet carries the same round -- one forward
    step's eager batch whose senders share round ``r``, no pull answers
    -- which copy reaches a node first is unobservable: a node is
    delivered at round ``r + 1`` iff it was hit at all.  Such a slot, once
    its batch is large against the population, is resolved node-side
    from the hit counts ``payload_received`` needs anyway, instead of by
    per-packet passes; every other slot races its copies.
    """
    arrivals, sent_round = queues.pop_arrivals(t)
    if arrivals is None:
        return np.empty(0, dtype=NODE_DTYPE)
    if sent_round is not None and arrivals[1].size >= scratch.n >> _NODE_SIDE_SHIFT:
        return _deliver_hits(state, arrivals[1], t, sent_round + 1)
    # numpy widens an int32 index array on every use; do it once.
    src, dst = arrivals[0], arrivals[1].astype(np.intp)
    _accumulate(state.payload_received, dst)
    # Everything below runs on the packets to not-yet-received nodes only.
    fresh = np.flatnonzero(np.take(state.received_slot, dst) == -1)
    if fresh.size == 0:
        return np.empty(0, dtype=NODE_DTYPE)
    winners, first = _first_occurrences(np.take(dst, fresh), scratch)
    state.received_slot[winners] = t
    # The origin already delivered locally; its first MSG arrival is a
    # scheduler-layer duplicate and changes nothing at the gossip layer.
    undelivered = np.take(state.deliver_slot, winners) == -1
    winners, first = winners[undelivered], first[undelivered]
    state.deliver_slot[winners] = t
    state.carried_round[winners] = state.carried_round[src[fresh[first]]] + 1
    return winners.astype(NODE_DTYPE, copy=False)


def _deliver_hits(
    state: MessageState, dst: NDArray[np.int32], t: int, next_round: int
) -> NDArray[np.int32]:
    """:func:`_process_arrivals` for a slot whose every packet carries
    ``next_round``: each hit node not yet received wins, in ascending id
    order -- what the race returns -- and the origin's copy coming back
    is filtered as there."""
    counts = np.bincount(dst, minlength=state.received_slot.shape[0])
    state.payload_received += counts
    hit = counts > 0
    hit &= state.received_slot == -1
    winners = np.flatnonzero(hit)
    state.received_slot[winners] = t
    winners = winners[np.take(state.deliver_slot, winners) == -1]
    state.deliver_slot[winners] = t
    state.carried_round[winners] = next_round
    return winners.astype(NODE_DTYPE, copy=False)


def _first_occurrences(
    dst: NDArray[np.intp], scratch: SlotScratch
) -> Tuple[NDArray[np.intp], NDArray[np.intp]]:
    """``np.unique(dst, return_index=True)`` without the argsort.

    With batches concatenated in processing order, the first occurrence
    per value is the event kernel's first-arrival-wins rule.  A
    reverse-order scatter into the reusable ``first_pos`` map leaves
    exactly the first position per value; the winners are read back in
    ascending id order -- the same (values, first_index) pair
    ``np.unique`` returns.  A batch that rivals the population (the
    epidemic bulge: up to fanout * n pairs) reads them with one O(n)
    pass over the map; a smaller one keeps the packets that hold their
    value's first position and sorts those values alone.
    """
    first_pos = scratch.first_pos
    positions = scratch.arange(dst.size)
    # Writing positions in descending order means the lowest index --
    # the first occurrence -- lands last and wins.
    first_pos[dst[::-1]] = positions[::-1]
    if dst.size < scratch.n // 4:
        winners = np.sort(dst[np.take(first_pos, dst) == positions])
    else:
        winners = np.flatnonzero(first_pos >= 0)
    first = first_pos[winners]
    first_pos[winners] = -1  # restore the rest state for the next slot
    return winners, first


def _due_nodes(
    state: MessageState, t: int, early: bool
) -> NDArray[np.int32]:
    """Entries whose timer fires in this phase of slot ``t``.

    Early = armed in an earlier slot: the timer event precedes the
    slot's packet arrivals, so a node whose first MSG landed *this* slot
    (``received_slot == t``) still fires -- the event kernel sent that
    IWANT before processing the arrival that would have cleared it.
    Late = armed this slot (zero-delay first requests): fires after the
    arrivals, so any received node's entry is already cleared and a
    liveness check is unnecessary.  Only the ids the timer wheel holds
    for slot ``t`` are tested, against the entry's current state: a stale
    id (entry cleared, or re-queued for another slot) fails, a repeated
    one (fresh entries are filed once per advertiser) is deduplicated;
    what is left comes back ascending.
    """
    armed = state.timers.pop(t, None)
    if armed is None:
        return np.empty(0, dtype=NODE_DTYPE)
    ids = np.concatenate(armed)
    due = state.request_active[ids] & (state.request_due[ids] == t)
    if early:
        due &= state.request_armed[ids] < t
        received = state.received_slot[ids]
        due &= (received == -1) | (received == t)
    else:
        due &= state.request_armed[ids] == t
    ids = np.sort(ids[due])  # values only: ties unobservable
    return ids[run_starts(ids)]


def _fire_requests(
    state: MessageState,
    strategy: CompiledStrategy,
    t: int,
    due: NDArray[np.int32],
    scratch: SlotScratch,
) -> Batch:
    """``RequestQueue._fire`` over every due node at once.

    Each due node asks its best live un-asked source (FIFO: lowest row
    index = first advertiser; nearest: lowest metric with the earliest
    row breaking ties) and re-arms ``retry_rounds`` ahead.  Nodes with
    no live un-asked source drop their entry -- epoch bump, sources
    forgotten -- exactly like the event queue "clearing itself".
    Returns the aligned ``(requester, source)`` IWANTs to emit.
    """
    if due.size == 0:
        return due, due
    log = state.adverts
    # The due-node mask lives in scratch: every bit set here is cleared
    # before returning (chosen and dropped nodes are subsets of ``due``).
    firing = scratch.flag
    firing[due] = True
    live = log.live(state.epoch)  # may compact: read the columns after it
    found = np.flatnonzero(live & firing[log.dst])
    # One value sort of (dst, row) packed into an int64 groups the
    # candidate rows by requester, in arrival order within each run; the
    # keys are distinct, so the unstable sort has no tie to break.
    keys = np.sort(log.dst[found].astype(np.int64) << 32 | found)
    row_dst, rows = keys >> 32, keys & 0xFFFFFFFF
    first = run_starts(row_dst)
    if strategy.nearest_source:  # the run's lowest metric, earliest on ties
        metric = log.metric[rows]
        lowest = np.minimum.reduceat(metric, first)
        lengths = np.diff(first, append=rows.size)
        hits = np.flatnonzero(metric == np.repeat(lowest, lengths))
        first = hits[run_starts(row_dst[hits])]
    chosen_dst, chosen_rows = row_dst[first].astype(NODE_DTYPE), rows[first]
    log.mark_asked(chosen_rows)
    # Entries with nothing left to ask clear themselves.
    firing[chosen_dst] = False
    state.drop_entries(due[firing[due]])
    firing[due] = False
    if chosen_dst.size:
        state.arm(chosen_dst, t, t + strategy.retry_rounds)
        state.request_attempts[chosen_dst] += 1
    return chosen_dst, log.src[chosen_rows]


def _emit_pulls(
    state: MessageState,
    queues: _SlotQueues,
    counters: _Counters,
    links: Optional[_LinkLog],
    t: int,
    fired: Batch,
    late: bool,
) -> None:
    """Send the ``(requester, source)`` IWANTs fired at slot ``t`` and
    queue their answers.

    The IWANT travels requester -> source (one slot); a delivered IWANT
    makes the source answer with a MSG (carrying the advertised round,
    ``carried_round[source] + 1`` like every packet of that source),
    which lands at ``t + 2`` -- each leg independently subject to the
    fault filter, with sends counted before their own drop, matching
    the fabric's observer ordering.  ``late`` routes the answer to the
    pull queue matching the firing phase (see :class:`_SlotQueues`).
    """
    requesters, sources = fired
    if requesters.size == 0:
        return
    counters.iwant_sent += int(requesters.size)
    counters.retries += int(np.count_nonzero(state.request_attempts[requesters] > 1))
    requesters, sources = queues.surviving((requesters, sources))
    if requesters.size == 0:
        return
    # The answering MSG: counted at the source for every delivered
    # IWANT, dropped (if at all) on its own return leg.
    counters.msg_sent += int(sources.size)
    _accumulate(state.payload_sent, sources)
    if links is not None:
        links.append(sources, requesters)
    answers = queues.pull_late if late else queues.pull_early
    queues.push(answers, t + 2, (sources, requesters))


def _clear_received(
    state: MessageState, t: int, newly: NDArray[np.int32], origin: int
) -> None:
    """Cancel the entries of nodes whose first MSG landed this slot: ``newly``,
    plus the origin when its own payload came back (never newly delivered)."""
    if state.received_slot[origin] == t:
        newly = np.append(newly, NODE_DTYPE(origin))
    state.drop_entries(newly[state.request_active[newly]])


def _process_adverts(
    state: MessageState,
    strategy: CompiledStrategy,
    queues: _SlotQueues,
    t: int,
    delay: int,
) -> None:
    """Apply this slot's IHAVE batches to the request schedule.

    Every advert to a still-waiting node is appended to the shared log
    (arrival order preserved; each (src, dst) pair advertises at most
    once per message, so no dedup is needed); nodes without an active
    entry are (re-)queued with the strategy's first-request delay,
    mirroring ``RequestQueue.queue``.
    """
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
    # One id per advertiser: the wheel dedups when the bucket is popped.
    fresh = dst[~state.request_active[dst]]
    if fresh.size:
        state.request_active[fresh] = True  # attempts rest at 0
        state.arm(fresh, t, t + delay)


def _requester_metric(
    strategy: CompiledStrategy,
    requester: NDArray[np.int32],
    source: NDArray[np.int32],
) -> NDArray[np.float64]:
    """The requester's metric about each advertising source."""
    evaluator = strategy.evaluator
    topology = getattr(evaluator, "topology", None)
    if topology is None:  # pragma: no cover - nearest implies a metric
        raise ValueError("nearest-source discipline needs a metric topology")
    return topology.metric(strategy.metric_kind, requester, source)
