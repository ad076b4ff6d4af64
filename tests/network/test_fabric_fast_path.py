"""The fabric's slim send path: when it is live, and that it changes nothing.

A recorder is attached to every experiment run, so the fast path must
tolerate an observer or it never runs outside unit tests (which is what
happened between the PR that added it and the PR that added these).
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
from repro.network.fabric import FabricConfig, LinkProfile, NetworkFabric
from repro.network.message import Packet
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.sim.engine import Simulator
from repro.topology.routing import ClientNetworkModel


def observed_cluster(**fabric_kwargs):
    """A cluster wired the way ``run_experiment`` wires it."""
    cluster = Cluster(
        canonical_model(),
        flat_factory(1.0),
        config=ClusterConfig(fabric=FabricConfig(**fabric_kwargs)),
        seed=3,
    )
    cluster.fabric.set_observer(MetricsRecorder())
    return cluster


def test_healthy_observed_cluster_is_on_the_fast_path():
    assert observed_cluster().fabric.fast_path


@pytest.mark.parametrize(
    "fabric_kwargs", [{"loss_probability": 0.1}, {"jitter_ms": 2.0}]
)
def test_loss_and_jitter_leave_the_fast_path(fabric_kwargs):
    assert not observed_cluster(**fabric_kwargs).fabric.fast_path


@pytest.mark.parametrize(
    "impair",
    [
        lambda fabric: fabric.set_link(0, 1, LinkProfile()),
        lambda fabric: fabric.set_node_slowdown(2, service_delay_ms=1.0),
    ],
    ids=["set_link", "service_delay"],
)
def test_gray_state_leaves_the_fast_path_until_cleared(impair):
    fabric = observed_cluster().fabric
    impair(fabric)
    assert not fabric.fast_path
    fabric.clear_gray()
    assert fabric.fast_path


def test_fast_path_is_read_only():
    with pytest.raises(AttributeError):
        observed_cluster().fabric.fast_path = False


# -- fast / full parity --------------------------------------------------------


def run_spec(monkeypatch, factory, force_full):
    """``run_experiment`` on the canonical model; with ``force_full`` a
    zero-effect profile on one directed link keeps every send on
    ``_send_full`` (non-empty link table) without drawing any randomness."""
    paths = []

    def build(*args, **kwargs):
        cluster = Cluster(*args, **kwargs)
        if force_full:
            cluster.fabric.set_link(0, 1, LinkProfile())
        paths.append(cluster.fabric.fast_path)
        return cluster

    monkeypatch.setattr(runner, "Cluster", build)
    spec = dataclasses.replace(canonical_spec("flat"), strategy_factory=factory)
    result = runner.run_experiment(canonical_model(), spec)
    assert paths == [not force_full]
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
    assert fabric.fast_path is not force_full

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
