"""Struct-of-arrays state for one message's dissemination.

The event kernel keeps per-node protocol objects; at 10^5-10^6 nodes
that is gigabytes of Python objects and pointer chasing.  Here one
message's entire protocol state is a handful of flat numpy arrays
indexed by node id -- the struct-of-arrays layout of round-synchronous
epidemic simulators (cf. D'Angelo & Ferretti's batch dissemination
runs).  Node ids are ``int32`` (2^31 nodes is far above the target
scale) and slots/rounds are ``int32`` too, so the resident state for a
million nodes is ~40 MB per in-flight message.  ``carried_round`` is
written once per node, at delivery; that is why no packet batch and no
advert row stores a round -- a packet sent by ``src`` carries
``carried_round[src] + 1`` whenever that is read.

Request-schedule state mirrors :mod:`repro.scheduler.requests` under
slot semantics: one timer per entry, asked sources forgotten.  A node's
pending entry is four scalars (``active``, ``due``, ``armed``,
``attempts``) plus an *epoch* counter; its timer is its id filed under
the due slot in ``MessageState.timers`` (a slot timer wheel, cancelled
lazily: a stale id fails the ``active`` / ``due`` test when its bucket
is popped); its known sources are rows of one shared :class:`AdvertLog`
of the IHAVEs delivered to still-waiting nodes.  Because each node
forwards a message at most once, any ordered ``(src, dst)`` pair
advertises at most once per message, so the log needs no deduplication;
the event queue's "entry dropped, sources forgotten" rule is reproduced
by bumping ``epoch[dst]`` -- rows stamped with another epoch are dead,
and a later advertisement re-queues the node against fresh rows only.
Dead rows never revive, so the log compresses them out and a fire reads
the sources still in play, not the message's history.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
from numpy.typing import NDArray

NODE_DTYPE = np.int32
SLOT_DTYPE = np.int32
ROUND_DTYPE = np.int32

#: The advert log compresses out its dead rows once fewer than one row
#: in this many is live: amortised O(1) per appended row.
_COMPACT_BELOW = 2


def run_starts(ordered: NDArray[np.generic]) -> NDArray[np.intp]:
    """Index of the first element of every run of equal values: what
    ``np.unique(ordered, return_index=True)`` finds by sorting or
    hashing, for input that already keeps equal values adjacent."""
    first = np.empty(ordered.shape[0], dtype=np.bool_)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return np.flatnonzero(first)


class AdvertLog:
    """Columnar log of the delivered IHAVE advertisements still in play.

    Columns are aligned arrays over rows 0..size: the advertised node
    (``dst``), the advertising source, the requester-side metric
    (0 under the FIFO discipline) and the ``dst`` entry epoch at append
    time, voided once the row's source has been asked.  Rows are appended
    in packet-processing order and removed only by a stable compress, so
    ascending row index *is* the event kernel's advertisement arrival
    order -- and a row index is good only until the next :meth:`live`.
    """

    _COLUMNS = ("_dst", "_src", "_metric", "_epoch")
    __slots__ = ("size", *_COLUMNS)

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.size = 0
        self._dst: NDArray[np.int32] = np.empty(capacity, NODE_DTYPE)
        self._src: NDArray[np.int32] = np.empty(capacity, NODE_DTYPE)
        self._metric: NDArray[np.float64] = np.empty(capacity, np.float64)
        self._epoch: NDArray[np.int32] = np.empty(capacity, np.int32)

    def _grow(self, needed: int) -> None:
        capacity = self._dst.shape[0]
        if self.size + needed <= capacity:
            return
        while capacity < self.size + needed:
            capacity *= 2
        for name in self._COLUMNS:
            old = getattr(self, name)
            grown = np.empty(capacity, old.dtype)
            grown[: self.size] = old[: self.size]
            setattr(self, name, grown)

    def append(
        self,
        dst: NDArray[np.int32],
        src: NDArray[np.int32],
        metric: NDArray[np.float64],
        epoch: NDArray[np.int32],
    ) -> None:
        """Append one batch of adverts (aligned arrays, arrival order)."""
        count = int(dst.shape[0])
        if count == 0:
            return
        self._grow(count)
        stop = self.size + count
        self._dst[self.size : stop] = dst
        self._src[self.size : stop] = src
        self._metric[self.size : stop] = metric
        self._epoch[self.size : stop] = epoch
        self.size = stop

    @property
    def dst(self) -> NDArray[np.int32]:
        return self._dst[: self.size]

    @property
    def src(self) -> NDArray[np.int32]:
        return self._src[: self.size]

    @property
    def metric(self) -> NDArray[np.float64]:
        return self._metric[: self.size]

    def mark_asked(self, rows: NDArray[np.int64]) -> None:
        self._epoch[rows] = -1  # no entry epoch is negative

    def live(self, epoch: NDArray[np.int32]) -> NDArray[np.bool_]:
        """Mask of the rows still askable: stamped with their node's
        current entry ``epoch``.  Rows only ever die (a voided stamp
        stays void, epochs only grow), so once the dead outnumber them
        they are compressed out first -- stably, keeping arrival order."""
        live = self._epoch[: self.size] == epoch[self.dst]
        if _COMPACT_BELOW * np.count_nonzero(live) >= self.size:
            return live
        rows = np.flatnonzero(live)
        for name in self._COLUMNS:
            column = getattr(self, name)
            column[: rows.size] = column[rows]
        self.size = int(rows.size)
        return np.ones(self.size, dtype=np.bool_)


class MessageState:
    """All per-node state of one message, as parallel arrays."""

    __slots__ = (
        "n",
        "deliver_slot",
        "received_slot",
        "carried_round",
        "payload_sent",
        "payload_received",
        "request_active",
        "request_due",
        "request_armed",
        "request_attempts",
        "epoch",
        "adverts",
        "timers",
    )

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"need at least one node, got {n}")
        self.n = n
        #: Slot at which the node first delivered the payload; -1 = never.
        self.deliver_slot: NDArray[np.int32] = np.full(n, -1, SLOT_DTYPE)
        #: Slot of the first *MSG packet* arrival -- the scheduler-layer
        #: ``received`` set.  Distinct from delivery: the origin delivers
        #: its own multicast locally without ever receiving a MSG, so
        #: (matching the event kernel) advertisements can still talk it
        #: into requesting -- and duplicating -- its own payload.
        self.received_slot: NDArray[np.int32] = np.full(n, -1, SLOT_DTYPE)
        #: Gossip round carried by the delivering MSG (0 for the origin).
        self.carried_round: NDArray[np.int32] = np.full(n, -1, ROUND_DTYPE)
        #: MSG packets sent by each node (eager forwards + IWANT answers),
        #: counted at the sender like the recorder's ``on_send`` -- i.e.
        #: *before* any loss or crash drop.
        self.payload_sent: NDArray[np.int64] = np.zeros(n, np.int64)
        #: MSG packets received by each node (deliveries + duplicates).
        self.payload_received: NDArray[np.int64] = np.zeros(n, np.int64)
        #: True while the node has a pending request entry (the event
        #: kernel's ``RequestQueue._pending`` membership).
        self.request_active: NDArray[np.bool_] = np.zeros(n, np.bool_)
        #: Slot at which the entry's timer fires next; -1 when inactive.
        self.request_due: NDArray[np.int32] = np.full(n, -1, SLOT_DTYPE)
        #: Slot at which that timer was armed -- decides whether the fire
        #: precedes (armed earlier) or follows (armed this slot) the due
        #: slot's packet arrivals, straight from event-queue FIFO order.
        self.request_armed: NDArray[np.int32] = np.full(n, -1, SLOT_DTYPE)
        #: Requests sent by the current entry (attempt 2+ is a retry).
        self.request_attempts: NDArray[np.int32] = np.zeros(n, SLOT_DTYPE)
        #: Entry generation; advert-log rows from older epochs are dead.
        self.epoch: NDArray[np.int32] = np.zeros(n, np.int32)
        #: Shared advertisement log (known sources, arrival order).
        self.adverts = AdvertLog()
        #: Slot timer wheel: ``{due slot: [ids armed for it, ...]}``.
        #: Every active entry has its id in the bucket of its due slot.
        self.timers: Dict[int, List[NDArray[np.int32]]] = {}

    def arm(self, nodes: NDArray[np.int32], t: int, due: int) -> None:
        """At slot ``t``, set the request timers of ``nodes`` to ``due``."""
        self.request_armed[nodes] = t
        self.request_due[nodes] = due
        self.timers.setdefault(due, []).append(nodes)

    def drop_entries(self, nodes: NDArray[np.intp]) -> None:
        """Cancel the request entries of ``nodes``, forgetting their
        sources (epoch bump: their advert-log rows are dead)."""
        self.request_active[nodes] = False
        self.request_due[nodes] = -1
        self.request_armed[nodes] = -1
        self.request_attempts[nodes] = 0
        self.epoch[nodes] += 1
