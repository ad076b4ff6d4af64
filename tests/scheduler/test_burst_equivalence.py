"""A forward's burst == one ``L-Send`` per peer, end to end.

``LazyPointToPoint.l_send_many`` decides a forward's peers in one
``eager_many`` pass and hands the MSG/IHAVE packets down as one burst.
This file carries a copy of the per-peer ``l_send`` it replaced, wires
it into every node in place of the real scheduler -- so each copy also
travels the transport and fabric alone -- and checks that whole runs come out bit-identical: the golden
trace digest (event order with exact timestamps, per-node latencies,
per-link payload counts, summary metrics) and every recorder counter.
The configurations cover the canonical golden ones plus what the goldens
do not pin: small purging connection buffers.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

import pytest

import repro.runtime.node as node_module
from repro.experiments.golden import (
    CANONICAL_CONFIGS,
    canonical_model,
    canonical_spec,
    trace_digest,
)
from repro.experiments.runner import run_experiment
from repro.network.message import control_packet_size
from repro.scheduler.lazy_point_to_point import IHAVE, MSG, LazyPointToPoint
from repro.sim.engine import Simulator
from repro.strategies.base import BaseStrategy


class PerPeerScheduler(LazyPointToPoint):
    """The scheduler sending each forward's copies one ``l_send`` at a
    time (the replaced per-peer path, below)."""

    def l_send_many(self, message_id, payload, round_, peers) -> None:
        for peer in peers:
            self.l_send(message_id, payload, round_, peer)

    def l_send(self, message_id: int, payload: Any, round_: int, peer: int) -> None:
        """``L-Send(i, d, r, p)`` from the gossip layer."""
        if self.strategy.eager(message_id, payload, round_, peer):
            self.eager_sends += 1
            self._send(
                peer, MSG, (message_id, payload, round_), self._msg_size(payload)
            )
        else:
            self.lazy_sends += 1
            self.cache.put(message_id, payload, round_)
            self._send(peer, IHAVE, message_id, control_packet_size())


def _small_buffers(name: str):
    spec = canonical_spec(name)
    cluster = replace(spec.cluster, connection_buffer_capacity=2)
    return replace(spec, cluster=cluster)


SPECS = {
    **{name: (lambda name=name: canonical_spec(name)) for name in CANONICAL_CONFIGS},
    "flat_buffer2": lambda: _small_buffers("flat"),
}


def _observed(result):
    recorder = result.recorder
    return (
        trace_digest(result),
        recorder.sent_packets,
        recorder.sent_bytes,
        recorder.delivered_packets,
        recorder.dropped_packets,
        recorder.link_payload_counts,
        recorder.node_payload_sent,
        recorder.node_payload_received,
        result.recovery,
    )


@pytest.mark.parametrize("name", sorted(SPECS))
def test_burst_run_matches_per_peer_run(name, monkeypatch):
    model = canonical_model()
    burst = run_experiment(model, SPECS[name]())
    monkeypatch.setattr(node_module, "LazyPointToPoint", PerPeerScheduler)
    per_peer = run_experiment(model, SPECS[name]())
    assert _observed(burst) == _observed(per_peer)
    assert burst.recorder.delivery_count > 0


class OddPeersEager(BaseStrategy):
    def eager(self, message_id, payload, round_, peer):
        return peer % 2 == 1


class LoggingSimulator(Simulator):
    def __init__(self, log):
        super().__init__(seed=1)
        self.log = log

    def schedule(self, delay, callback, *args):
        self.log.append(("timer", delay, args))
        return super().schedule(delay, callback, *args)


def test_burst_keeps_sends_in_per_peer_order():
    """A forward's burst sends the MSG and IHAVE copies, and arms no
    timer, exactly as one ``l_send`` per peer does."""

    def run(scheduler_cls):
        log = []
        scheduler = scheduler_cls(
            LoggingSimulator(log),
            0,
            OddPeersEager(),
            lambda dst, kind, payload, size: log.append(("send", dst, kind)),
            lambda messages: log.extend(
                ("send", dst, kind) for dst, kind, _, _ in messages
            ),
        )
        for message_id, peers in ((1, [1, 2, 3, 4, 5]), (2, [2, 3, 6, 7, 8])):
            scheduler.l_send_many(message_id, "d", 1, peers)
        return log

    logs = [run(LazyPointToPoint), run(PerPeerScheduler)]
    assert logs[0] == logs[1]
    assert all(entry[0] == "send" for entry in logs[0])
