"""Measured latency monitor (section 4.2).

"Real-time monitoring of latency has been addressed a number of times,
in fact, every TCP/IP connection implicitly estimates round-trip time in
order to perform congestion control."  This monitor reproduces that
estimator: it probes neighbours with PING/PONG control messages and
smooths round-trip samples with Jacobson's exponentially weighted moving
average (``SRTT = (1 - alpha) * SRTT + alpha * sample``, ``alpha = 1/8``),
exactly what TCP keeps per connection.

``Metric(p)`` returns the estimated *one-way* latency (SRTT / 2) so it
is directly comparable with the oracle latency monitor; peers never
measured are infinitely far, making strategies conservative about them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.network.message import control_packet_size
from repro.sim.engine import Simulator
from repro.sim.rng import sample
from repro.sim.timers import PeriodicTimer

PING = "PING"
PONG = "PONG"

#: Jacobson's smoothing gain.
SRTT_ALPHA = 1.0 / 8.0

SendFn = Callable[[int, str, object, int], None]
NeighborsFn = Callable[[], List[int]]


@dataclass(frozen=True)
class LatencyMonitorConfig:
    """Probing parameters.

    ``suspicion_threshold`` enables failure detection: a peer whose last
    N probes all went unanswered is reported to the ``on_suspect``
    callback (the way NeEM notices a broken TCP connection).  0 disables
    detection, matching the paper's model where views keep dead peers.
    """

    probe_period_ms: float = 1000.0
    probe_jitter_ms: float = 200.0
    probes_per_tick: int = 3
    suspicion_threshold: int = 0

    def __post_init__(self) -> None:
        if self.probe_period_ms <= 0:
            raise ValueError("probe_period_ms must be positive")
        if self.probes_per_tick < 1:
            raise ValueError("probes_per_tick must be >= 1")
        if self.suspicion_threshold < 0:
            raise ValueError("suspicion_threshold must be >= 0")


class RuntimeLatencyMonitor:
    """Per-node RTT estimator over PING/PONG probes."""

    KINDS = (PING, PONG)

    def __init__(
        self,
        sim: Simulator,
        node: int,
        send: SendFn,
        neighbors: NeighborsFn,
        config: Optional[LatencyMonitorConfig] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.config = config or LatencyMonitorConfig()
        self._send = send
        self._neighbors = neighbors
        self._rng = sim.rng.stream(f"monitor.latency.{node}")
        self._srtt: Dict[int, float] = {}
        self._unanswered: Dict[int, int] = {}
        self.samples_taken = 0
        self.suspected: set = set()
        #: Failure-detection callback, invoked as ``on_suspect(peer)``
        #: once per newly suspected peer (when detection is enabled).
        self.on_suspect: Optional[Callable[[int], None]] = None
        self._timer = PeriodicTimer(
            sim, self.config.probe_period_ms, self._probe_tick, jitter=self._jitter
        )

    def _jitter(self) -> float:
        spread = self.config.probe_jitter_ms
        return self._rng.uniform(-spread, spread) if spread > 0 else 0.0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        self._timer.start(
            initial_delay=self._rng.uniform(0, self.config.probe_period_ms)
        )

    def stop(self) -> None:
        self._timer.stop()

    # -- PerformanceMonitor -----------------------------------------------------

    def metric(self, peer: int) -> float:
        """Estimated one-way latency to ``peer`` (ms); inf if unmeasured."""
        if peer == self.node:
            return 0.0
        srtt = self._srtt.get(peer)
        if srtt is None:
            return float("inf")
        return srtt / 2.0

    def srtt(self, peer: int) -> Optional[float]:
        """The raw smoothed RTT, for diagnostics and ranking scores."""
        return self._srtt.get(peer)

    def mean_srtt(self) -> float:
        """Mean smoothed RTT over measured peers (inf when none).

        Used as a node quality score by the gossip ranking: a node whose
        neighbours are close is likely well-placed to act as a hub.
        """
        if not self._srtt:
            return float("inf")
        return sum(self._srtt.values()) / len(self._srtt)

    # -- probe protocol ------------------------------------------------------------

    def _probe_tick(self) -> None:
        neighbors = self._neighbors()
        if not neighbors:
            return
        count = min(self.config.probes_per_tick, len(neighbors))
        for peer in sample(self._rng, neighbors, count):
            self._note_probe(peer)
            self._send(peer, PING, self.sim.now, control_packet_size())

    def _note_probe(self, peer: int) -> None:
        """Suspicion accounting: a peer is suspected when ``threshold``
        earlier probes are all still unanswered by the time we probe it
        again (each probe gets a full probe period to be answered)."""
        threshold = self.config.suspicion_threshold
        if threshold == 0 or peer in self.suspected:
            return
        outstanding = self._unanswered.get(peer, 0)
        if outstanding >= threshold:
            self.suspected.add(peer)
            if self.on_suspect is not None:
                self.on_suspect(peer)
            return
        self._unanswered[peer] = outstanding + 1

    def handle(self, src: int, kind: str, payload: object) -> None:
        """Dispatch entry point for PING/PONG messages."""
        if kind == PING:
            # Echo the sender's timestamp back.
            self._send(src, PONG, payload, control_packet_size())
        elif kind == PONG:
            sample = self.sim.now - float(payload)  # type: ignore[arg-type]
            self._record(src, sample)
        else:  # pragma: no cover - wiring error
            raise ValueError(f"unexpected monitor message kind {kind!r}")

    def _record(self, peer: int, rtt_sample: float) -> None:
        self.samples_taken += 1
        self._unanswered.pop(peer, None)
        self.suspected.discard(peer)  # a revived peer clears suspicion
        current = self._srtt.get(peer)
        if current is None:
            self._srtt[peer] = rtt_sample
        else:
            self._srtt[peer] = (1.0 - SRTT_ALPHA) * current + SRTT_ALPHA * rtt_sample
