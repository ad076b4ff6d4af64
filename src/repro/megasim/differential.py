"""Differential harness: the event kernel as megasim's ground truth.

In the *slot-exact regime* the event kernel degenerates to a
synchronous-round machine and the two backends must agree **exactly**:

- uniform one-way latency ``L`` (every hop takes exactly one slot),
- no NIC serialization (``bandwidth_bytes_per_ms=None``) and no loss,
- oracle peer sampling (``overlay=None``), and connection buffers
  that never fill: the slot kernel has none, so a run whose transport
  purged a packet is rejected rather than compared,
- fanout >= n - 1, so the sampler returns *all* other nodes without
  consuming randomness,
- a strategy whose eager test is deterministic (Flat(0), Flat(1), TTL,
  Radius, Ranked, Hybrid -- not 0 < p < 1), with request delays that
  are multiples of ``L`` other than exactly one slot (where the event
  kernel's intra-slot ordering is ambiguous; see
  :mod:`repro.megasim.rounds`).

:func:`run_event_message` runs one message through the event kernel in
that regime and extracts the same observables
:class:`~repro.megasim.rounds.MessageOutcome` reports, with times
converted to slots; the tests in ``tests/megasim/test_differential.py``
then compare field by field.  Outside the regime (partial fanout,
probabilistic strategies) the kernels draw from different RNG streams
and only statistical agreement is claimed.

Faults extend the regime rather than leaving it: both halves accept the
one fault model both kernels share, a ``failure`` plan of crash-stop
nodes and a ``gray`` plan of lossy directed links.  Its
*outcome-deterministic* subset -- crash-stop nodes and fully-lossy
directed links (``link_loss_probability=1.0``) -- keeps every
observable exact, retries included, because no per-packet coin flip is
ever consulted.
Both kernels pick those targets with the same functions
(:func:`~repro.failures.crash_victims`,
:func:`~repro.failures.gray_targets`) on the same seed, so they impair
the same nodes and links by construction.
Fractional loss probabilities draw Bernoulli coins from different
streams in the two kernels and belong to the statistical tier
(``tests/megasim/test_faults.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.failures.gray import GrayFailureInjector, GrayFailurePlan
from repro.failures.injection import FailureInjector, FailurePlan
from repro.gossip.config import GossipConfig
from repro.megasim.adapter import DenseTopology
from repro.megasim.rounds import MessageOutcome, receipt_round_histogram
from repro.megasim.runner import MegasimSpec, run_megasim
from repro.megasim.state import ROUND_DTYPE, SLOT_DTYPE
from repro.metrics.recorder import MetricsRecorder
from repro.network.fabric import FabricConfig
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.runtime.node import StrategyFactory
from repro.scheduler.interfaces import DEFAULT_RETRY_PERIOD_MS, SchedulerConfig
from repro.sim.rng import RandomStreams
from repro.topology.geometry import Point
from repro.topology.routing import ClientNetworkModel

#: Numerical slack when converting event-kernel times to integer slots.
_SLOT_EPSILON = 1e-6


@dataclass
class EventOutcome:
    """One event-kernel message, measured in megasim's vocabulary."""

    origin: int
    deliver_slot: NDArray[np.int32]
    carried_round: NDArray[np.int32]
    payload_sent: NDArray[np.int64]
    payload_received: NDArray[np.int64]
    msg_sent: int
    ihave_sent: int
    iwant_sent: int
    link_counts: Dict[Tuple[int, int], int]
    #: Sum of every node's ``RequestQueue.retries_sent``.
    retries: int = 0

    @property
    def delivered_count(self) -> int:
        return int(np.count_nonzero(self.deliver_slot >= 0))

    def receipt_round_histogram(self) -> Dict[int, int]:
        return receipt_round_histogram(self.carried_round, self.deliver_slot)


def slot_exact_config(
    fanout: int,
    rounds: int,
    retry_period_ms: float = DEFAULT_RETRY_PERIOD_MS,
) -> ClusterConfig:
    """The event-kernel configuration of the slot-exact regime."""
    return ClusterConfig(
        gossip=GossipConfig(fanout=fanout, rounds=rounds),
        scheduler=SchedulerConfig(retry_period_ms=retry_period_ms),
        fabric=FabricConfig(bandwidth_bytes_per_ms=None),
        overlay=None,
    )


def plane_model(
    n: int, seed: int = 0, side: float = 100.0, latency_ms: float = 50.0
) -> ClientNetworkModel:
    """Uniform-latency model with random plane positions.

    The environment of the Radius/Hybrid *distance*-metric differential:
    hop timing stays slot-exact while the geometry is non-trivial.
    """
    rng = random.Random(
        RandomStreams(seed).derive_seed("megasim.differential.plane")
    )
    positions = [
        Point(rng.uniform(0.0, side), rng.uniform(0.0, side)) for _ in range(n)
    ]
    latency = [
        [0.0 if i == j else latency_ms for j in range(n)] for i in range(n)
    ]
    hops = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    return ClientNetworkModel(latency, hops, positions)


def run_event_message(
    model: ClientNetworkModel,
    factory: StrategyFactory,
    origin: int,
    fanout: int,
    rounds: int,
    retry_period_ms: float = DEFAULT_RETRY_PERIOD_MS,
    seed: int = 0,
    failure: Optional[FailurePlan] = None,
    gray: Optional[GrayFailurePlan] = None,
) -> EventOutcome:
    """One message through the event kernel in the slot-exact regime.

    The cluster is *not* started (no periodic agents), the message is
    multicast at t=0, and the simulation drains completely; every
    delivery time must land on a whole slot or the model was not
    actually uniform, and no connection buffer may have purged a packet.
    Faults are injected before the multicast, like
    the experiment engine does (after warmup, before logging).
    """
    n = model.size
    slot_ms = model.latency(0, 1) if n > 1 else 1.0
    recorder = MetricsRecorder()
    cluster = Cluster(
        model,
        factory,
        config=slot_exact_config(fanout, rounds, retry_period_ms),
        seed=seed,
    )
    if failure is not None:
        FailureInjector(cluster).apply(failure)
    if gray is not None:
        GrayFailureInjector(cluster).apply(gray)
    cluster.fabric.set_observer(recorder)
    cluster.set_multicast_hook(recorder.on_multicast)
    cluster.set_deliver(
        lambda node, message_id, payload: recorder.on_app_deliver(
            node, message_id, cluster.sim.now
        )
    )
    message_id = cluster.multicast(origin, payload="payload")
    cluster.run_until_idle()
    purged = cluster.transport.purged_count
    if purged:
        raise ValueError(
            f"purged_count is {purged}: connection buffers purged packets, "
            "which the slot kernel does not model"
        )

    deliver_slot = np.full(n, -1, SLOT_DTYPE)
    for node, when in recorder.deliveries[message_id].items():
        slots = when / slot_ms
        nearest = round(slots)
        if abs(slots - nearest) > _SLOT_EPSILON:
            raise ValueError(
                f"delivery at {when} ms is not slot-aligned (slot {slot_ms} ms)"
            )
        deliver_slot[node] = nearest

    carried_round = np.full(n, -1, ROUND_DTYPE)
    for node_id, node in enumerate(cluster.nodes):
        counts = node.gossip.receipt_rounds
        if not counts:
            continue
        if sum(counts.values()) != 1:
            raise ValueError(
                f"node {node_id} delivered {sum(counts.values())} times"
            )
        (carried_round[node_id],) = counts.keys()

    payload_sent = np.zeros(n, np.int64)
    for node_id, count in recorder.node_payload_sent.items():
        payload_sent[node_id] = count
    payload_received = np.zeros(n, np.int64)
    for node_id, count in recorder.node_payload_received.items():
        payload_received[node_id] = count

    return EventOutcome(
        origin=origin,
        deliver_slot=deliver_slot,
        carried_round=carried_round,
        payload_sent=payload_sent,
        payload_received=payload_received,
        msg_sent=int(recorder.sent_packets["MSG"]),
        ihave_sent=int(recorder.sent_packets["IHAVE"]),
        iwant_sent=int(recorder.sent_packets["IWANT"]),
        link_counts={
            link: int(count)
            for link, count in recorder.link_payload_counts.items()
        },
        retries=sum(
            node.scheduler.requests.retries_sent for node in cluster.nodes
        ),
    )


def run_vector_message(
    model: ClientNetworkModel,
    factory: StrategyFactory,
    origin: int,
    fanout: int,
    rounds: int,
    retry_period_ms: float = DEFAULT_RETRY_PERIOD_MS,
    seed: int = 0,
    track_links: bool = False,
    failure: Optional[FailurePlan] = None,
    gray: Optional[GrayFailurePlan] = None,
) -> MessageOutcome:
    """The megasim half of the differential: same model, same factory,
    through the wiring users run (a one-message ``run_megasim``).

    Fault plans are compiled against the same derived streams the event
    kernel's injectors consume, so victim/link selection matches
    bit-for-bit; Bernoulli loss (if any) draws from the dedicated
    ``megasim.loss.0`` stream.
    """
    spec = MegasimSpec(
        strategy_factory=factory,
        nodes=model.size,
        fanout=fanout,
        rounds=rounds,
        seed=seed,
        retry_period_ms=retry_period_ms,
        origins=(origin,),
        track_links=track_links,
        failure=failure,
        gray=gray,
    )
    return run_megasim(spec, topology=DenseTopology(model)).outcomes[0]


def exact_pair(
    model: ClientNetworkModel,
    factory: StrategyFactory,
    origin: int,
    rounds: int,
    retry_period_ms: float = DEFAULT_RETRY_PERIOD_MS,
    failure: Optional[FailurePlan] = None,
    gray: Optional[GrayFailurePlan] = None,
) -> Tuple[EventOutcome, MessageOutcome]:
    """Both backends on the same message in the slot-exact regime
    (fanout pinned to n - 1, fault plans applied to both halves)."""
    fanout = max(1, model.size - 1)
    event = run_event_message(
        model, factory, origin, fanout, rounds, retry_period_ms,
        failure=failure, gray=gray,
    )
    vector = run_vector_message(
        model,
        factory,
        origin,
        fanout,
        rounds,
        retry_period_ms,
        track_links=True,
        failure=failure,
        gray=gray,
    )
    return event, vector
