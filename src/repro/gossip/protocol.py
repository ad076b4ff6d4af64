"""The eager push gossip protocol of Fig. 2.

This layer is *identical* whether payloads travel eagerly or lazily: it
calls ``L-Send(i, d, r, p)`` on whatever lies below and receives
``L-Receive(i, d, r, s)`` up-calls.  In this repository "below" is either
a trivial direct sender (pure eager push, for baselines and tests) or
the :class:`~repro.scheduler.lazy_point_to_point.LazyPointToPoint`
payload scheduler -- the paper's transparency claim (section 3.1) is thus
structural here, not just asserted.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Sequence

from repro.gossip.config import GossipConfig
from repro.gossip.known_ids import KnownIds
from repro.gossip.message_ids import MessageIdSource
from repro.membership.peer_sampling import PeerSamplingService

#: L-Send to ``Forward``'s peers at once: (message_id, payload, round, peers)
LSendManyFn = Callable[[int, Any, int, Sequence[int]], None]
#: Application delivery up-call: (message_id, payload) -> None
DeliverFn = Callable[[int, Any], None]


class GossipProtocol:
    """One node's instance of the basic gossip protocol (Fig. 2).

    Parameters
    ----------
    node:
        This node's id (used only for diagnostics).
    peer_sampler:
        The ``PeerSample(f)`` service (oracle or shuffled overlay).
    l_send_many:
        The layer below (``L-Send`` in the paper), called once per
        forward with the ordered peer list.
    deliver:
        Application up-call ``Deliver(d)``.
    id_source:
        Generator of probabilistically unique identifiers.
    """

    def __init__(
        self,
        node: int,
        config: GossipConfig,
        peer_sampler: PeerSamplingService,
        l_send_many: LSendManyFn,
        deliver: DeliverFn,
        id_source: MessageIdSource,
    ) -> None:
        self.node = node
        self.config = config
        self.peer_sampler = peer_sampler
        self.l_send_many = l_send_many
        self.deliver = deliver
        self.id_source = id_source
        self.known = KnownIds(config.known_ids_capacity)
        self.delivered_count = 0
        self.duplicate_count = 0
        self.forwarded_count = 0
        #: Histogram of the round at which messages were delivered here
        #: (0 = own multicasts).  The paper reports messages delivered
        #: "on the average after being gossiped 4.5 times".
        self.receipt_rounds: Counter = Counter()

    def multicast(self, payload: Any) -> int:
        """``Multicast(d)``: stamp a fresh id and start the epidemic.

        Returns the message identifier for correlation by callers.
        """
        message_id = self.id_source.next_id()
        self.multicast_with_id(message_id, payload)
        return message_id

    def multicast_with_id(self, message_id: int, payload: Any) -> None:
        """Start the epidemic under a caller-chosen identifier.

        Lets instrumentation register the id *before* the synchronous
        local delivery fires; the id must be fresh and unique.
        """
        self._forward(message_id, payload, 0)

    def l_receive(
        self, message_id: int, payload: Any, round_: int, sender: int
    ) -> None:
        """``L-Receive`` up-call from the layer below."""
        if message_id in self.known:
            self.duplicate_count += 1
            return
        self._forward(message_id, payload, round_)

    def _forward(self, message_id: int, payload: Any, round_: int) -> None:
        """``Forward(i, d, r)``: deliver locally, then relay."""
        self.deliver(message_id, payload)
        self.delivered_count += 1
        self.receipt_rounds[round_] += 1
        self.known.add(message_id)
        if round_ >= self.config.rounds:
            return
        peers = self.peer_sampler.sample(self.config.fanout)
        self.forwarded_count += len(peers)
        self.l_send_many(message_id, payload, round_ + 1, peers)

    def mean_receipt_round(self) -> float:
        """Average round at which this node delivered messages (NaN when
        nothing was delivered)."""
        total = sum(self.receipt_rounds.values())
        if total == 0:
            return float("nan")
        return sum(r * c for r, c in self.receipt_rounds.items()) / total
