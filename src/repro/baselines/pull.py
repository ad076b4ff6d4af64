"""Anti-entropy pull gossip (the pull baseline).

Section 7 draws a sharp line between lazy push and pull: "Pull gossip
... issues generic requests to a random sub-set of nodes, which might or
not have new data, while lazy push gossip requests specific data items
only from peers that have previously advertised them."  This baseline
implements the classic periodic anti-entropy pull so the difference is
measurable:

- every ``period_ms`` each node picks a random peer and sends it a
  **digest** of the message ids it already holds (``PULL_REQ``);
- the peer answers with the payloads the requester is missing
  (``PULL_DATA``).

Consequences, visible in the "pull" row of
:func:`repro.experiments.baselines.compare_baselines`: dissemination
latency is dominated by the pull period (not the network RTT), and the
digest traffic exists whether or not there is anything new -- the
overheads lazy push avoids by advertising specific ids exactly when
they appear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.network.message import PACKET_OVERHEAD_BYTES, payload_packet_size
from repro.network.transport import ConnectionTransport, Endpoint
from repro.sim.timers import PeriodicTimer

PULL_REQ = "PULL_REQ"
PULL_DATA = "PULL_DATA"

#: Wire bytes charged per message id carried in a digest.
_BYTES_PER_DIGEST_ENTRY = 16

DeliverFn = Callable[[int, int, Any], None]


@dataclass(frozen=True)
class PullConfig:
    """Anti-entropy parameters."""

    period_ms: float = 500.0
    jitter_ms: float = 100.0
    digest_window: int = 128
    payload_bytes: int = 256

    def __post_init__(self) -> None:
        if self.period_ms <= 0:
            raise ValueError("period_ms must be positive")
        if self.digest_window < 1:
            raise ValueError("digest_window must be >= 1")
        if self.payload_bytes < 1:
            raise ValueError("payload_bytes must be >= 1")


class _PullNode:
    """One participant's store + periodic pull."""

    def __init__(self, system: "PullGossipSystem", node: int, endpoint: Endpoint):
        self.system = system
        self.node = node
        self.endpoint = endpoint
        self.store: Dict[int, Any] = {}
        self.recent: List[int] = []
        rng = system.sim.rng.stream(f"pull.{node}")
        self._rng = rng
        self.timer = PeriodicTimer(
            system.sim,
            system.config.period_ms,
            self._pull_once,
            jitter=self._jitter,
        )
        endpoint.set_receiver(self._receive)

    def _jitter(self) -> float:
        spread = self.system.config.jitter_ms
        return self._rng.uniform(-spread, spread) if spread > 0 else 0.0

    def learn(self, message_id: int, payload: Any) -> bool:
        """Store a payload; True when it was new (deliver it)."""
        if message_id in self.store:
            return False
        self.store[message_id] = payload
        self.recent.append(message_id)
        window = self.system.config.digest_window
        if len(self.recent) > window:
            del self.recent[: len(self.recent) - window]
        return True

    def _pull_once(self) -> None:
        population = self.system.size
        if population < 2:
            return
        peer = self._rng.randrange(population - 1)
        if peer >= self.node:
            peer += 1
        digest = list(self.recent)
        size = PACKET_OVERHEAD_BYTES + _BYTES_PER_DIGEST_ENTRY * len(digest)
        self.endpoint.send(peer, PULL_REQ, digest, size)

    def _receive(self, src: int, kind: str, wire_payload: Any) -> None:
        if kind == PULL_REQ:
            known = set(wire_payload)
            for message_id in self.recent:
                if message_id not in known:
                    self.endpoint.send(
                        src, PULL_DATA, (message_id, self.store[message_id]),
                        self.system.packet_size,
                    )
        elif kind == PULL_DATA:
            message_id, payload = wire_payload
            if self.learn(message_id, payload):
                self.system._deliver(self.node, message_id, payload)
        else:  # pragma: no cover - wiring error
            raise ValueError(f"unexpected pull message kind {kind!r}")


class PullGossipSystem:
    """A group of anti-entropy pullers over one transport."""

    def __init__(
        self,
        transport: ConnectionTransport,
        size: int,
        deliver: DeliverFn,
        config: Optional[PullConfig] = None,
    ) -> None:
        self.sim = transport.sim
        self.config = config or PullConfig()
        self.size = size
        self.packet_size = payload_packet_size(self.config.payload_bytes)
        self._deliver = deliver
        self.nodes = [
            _PullNode(self, node, transport.endpoint(node)) for node in range(size)
        ]

    def start(self) -> None:
        for node in self.nodes:
            node.timer.start(
                initial_delay=node._rng.uniform(0, self.config.period_ms)
            )

    def stop(self) -> None:
        for node in self.nodes:
            node.timer.stop()

    def multicast_with_id(self, origin: int, message_id: int, payload: Any) -> None:
        """Seed a new message at ``origin``; spreads via anti-entropy."""
        if self.nodes[origin].learn(message_id, payload):
            self._deliver(origin, message_id, payload)
