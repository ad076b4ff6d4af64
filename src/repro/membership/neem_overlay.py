"""NeEM-style shuffled overlay membership.

Each node keeps a :class:`~repro.membership.view.PartialView` of
``view_size`` peers (15 in the paper's configuration) and periodically
shuffles it with a random neighbour: it sends a small random subset of
its view (plus its own id) and the receiver answers with a subset of its
own, both sides merging what they learn.  This is the Cyclon/NeEM family
of view exchange that keeps the overlay a random graph while connections
churn -- the paper observes ~550 simultaneous and ~15000 distinct
connections per run (section 5.4).

The overlay is transport-agnostic: it is given a ``send`` callable and
exposes ``handle(src, kind, payload)``; the node stack dispatches the
``SHUFFLE``/``SHUFFLE_REPLY`` kinds to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional

from repro.membership.view import PartialView
from repro.network.message import PACKET_OVERHEAD_BYTES
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer

SHUFFLE = "SHUFFLE"
SHUFFLE_REPLY = "SHUFFLE_REPLY"

#: Wire size charged per peer id carried in a shuffle (ip:port + age).
_BYTES_PER_ENTRY = 8


@dataclass(frozen=True)
class OverlayConfig:
    """Membership parameters (paper defaults: view of 15)."""

    view_size: int = 15
    shuffle_size: int = 4
    shuffle_period_ms: float = 1000.0
    shuffle_jitter_ms: float = 200.0

    def __post_init__(self) -> None:
        if self.view_size < 1:
            raise ValueError("view_size must be >= 1")
        if not 1 <= self.shuffle_size <= self.view_size:
            raise ValueError("shuffle_size must be in [1, view_size]")
        if self.shuffle_period_ms <= 0:
            raise ValueError("shuffle_period_ms must be positive")


SendFn = Callable[[int, str, object, int], None]


class NeemOverlay:
    """One node's membership agent."""

    KINDS = (SHUFFLE, SHUFFLE_REPLY)

    def __init__(
        self,
        sim: Simulator,
        node: int,
        send: SendFn,
        config: Optional[OverlayConfig] = None,
        bootstrap: Optional[Iterable[int]] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.config = config or OverlayConfig()
        self._send = send
        self._rng = sim.rng.stream(f"overlay.{node}")
        self.view = PartialView(
            owner=node,
            capacity=self.config.view_size,
            rng=self._rng,
            initial=bootstrap,
        )
        self.shuffles_sent = 0
        self.shuffles_answered = 0
        self._timer = PeriodicTimer(
            sim,
            self.config.shuffle_period_ms,
            self._shuffle_once,
            jitter=self._jitter,
        )

    def _jitter(self) -> float:
        spread = self.config.shuffle_jitter_ms
        if spread <= 0:
            return 0.0
        return self._rng.uniform(-spread, spread)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Begin periodic shuffling, de-synchronized across nodes."""
        initial = self._rng.uniform(0, self.config.shuffle_period_ms)
        self._timer.start(initial_delay=initial)

    def stop(self) -> None:
        self._timer.stop()

    # -- PeerSamplingService ---------------------------------------------------

    def sample(self, fanout: int) -> List[int]:
        return self.view.sample(fanout)

    def neighbors(self) -> List[int]:
        return self.view.peers()

    # -- shuffle protocol --------------------------------------------------------

    def _shuffle_once(self) -> None:
        partner = self.view.random_peer()
        if partner is None:
            return
        offer = self.view.sample(self.config.shuffle_size - 1, exclude=partner)
        offer.append(self.node)
        self.shuffles_sent += 1
        self._send(partner, SHUFFLE, offer, self._wire_size(offer))

    def handle(self, src: int, kind: str, payload: object) -> None:
        """Dispatch entry point for SHUFFLE/SHUFFLE_REPLY messages."""
        offered = list(payload)  # type: ignore[arg-type]
        if kind == SHUFFLE:
            reply = self.view.sample(self.config.shuffle_size, exclude=src)
            if not reply:
                reply = [self.node]
            self.shuffles_answered += 1
            self._send(src, SHUFFLE_REPLY, reply, self._wire_size(reply))
            self._merge(offered)
        elif kind == SHUFFLE_REPLY:
            self._merge(offered)
        else:  # pragma: no cover - wiring error
            raise ValueError(f"unexpected overlay message kind {kind!r}")

    def _merge(self, offered: List[int]) -> None:
        for peer in offered:
            self.view.add(peer)

    @staticmethod
    def _wire_size(entries: List[int]) -> int:
        return PACKET_OVERHEAD_BYTES + _BYTES_PER_ENTRY * len(entries)
