"""A link table that changes nothing changes no run.

``fast`` and ``full`` name the two fabric states a healthy-path switch
once told apart: an empty link table, and one holding a zero-effect
:class:`LinkProfile` on one directed link.  Every packet now takes the
one send loop of ``NetworkFabric.send_many``, which looks links up only
when the table is non-empty; these tests hold that the lookup draws
nothing and moves nothing, over whole runs and over refused sends.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments import runner
from repro.experiments.golden import (
    CANONICAL_PARAMS,
    canonical_model,
    canonical_spec,
    trace_digest,
)
from repro.experiments.scenarios import flat_factory, radius_factory
from repro.metrics.recorder import MetricsRecorder
from repro.network.fabric import LinkProfile, NetworkFabric
from repro.network.message import Packet
from repro.runtime.cluster import Cluster
from repro.sim.engine import Simulator
from repro.topology.routing import ClientNetworkModel


# -- empty / zero-effect link table ---------------------------------------------


def run_spec(monkeypatch, factory, force_full):
    """``run_experiment`` on the canonical model; with ``force_full`` a
    zero-effect profile on one directed link makes the link table
    non-empty without changing any packet."""
    tables = []

    def build(*args, **kwargs):
        cluster = Cluster(*args, **kwargs)
        if force_full:
            cluster.fabric.set_link(0, 1, LinkProfile())
        tables.append(cluster.fabric.link_profile(0, 1))
        return cluster

    monkeypatch.setattr(runner, "Cluster", build)
    spec = dataclasses.replace(canonical_spec("flat"), strategy_factory=factory)
    result = runner.run_experiment(canonical_model(), spec)
    assert tables == [LinkProfile() if force_full else None]
    return result


@pytest.mark.parametrize(
    "factory",
    [flat_factory(1.0), radius_factory(CANONICAL_PARAMS)],
    ids=["flat-1.0", "radius"],
)
def test_fast_and_full_paths_produce_the_same_run(monkeypatch, factory):
    fast = run_spec(monkeypatch, factory, force_full=False)
    full = run_spec(monkeypatch, factory, force_full=True)
    assert trace_digest(fast) == trace_digest(full)
    for counter in (
        "sent_packets",
        "sent_bytes",
        "link_payload_counts",
        "delivered_packets",
        "dropped_packets",
    ):
        assert getattr(fast.recorder, counter) == getattr(full.recorder, counter)
    assert fast.recorder.sent_packets["MSG"] > 0


@pytest.mark.parametrize("force_full", [False, True], ids=["fast", "full"])
def test_refused_sends_are_observed_exactly_once(force_full):
    sim = Simulator(seed=1)
    fabric = NetworkFabric(sim, ClientNetworkModel.uniform(4, latency_ms=10.0))
    recorder = MetricsRecorder()
    fabric.set_observer(recorder)
    for node in range(4):
        fabric.register(node, lambda packet: None)
    if force_full:
        fabric.set_link(2, 3, LinkProfile())

    def send(src, dst):
        return fabric.send(Packet(src, dst, "MSG", None, 100))

    fabric.silence(0)
    assert send(0, 1) is None
    fabric.unsilence(0)
    fabric.partition([[0, 1], [2, 3]])
    assert send(0, 2) is None
    assert send(0, 1) is not None
    fabric.heal()
    assert send(0, 2) is not None
    sim.run()

    assert recorder.sent_packets == {"MSG": 4}
    assert recorder.dropped_packets == {"sender-silenced": 1, "partitioned": 1}
    assert recorder.delivered_packets == {"MSG": 2}
