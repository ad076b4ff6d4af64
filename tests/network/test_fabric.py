"""Network fabric tests: silencing, serialization, link loss, latency."""

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
from repro.runtime.cluster import Cluster
from repro.sim.engine import Simulator
from repro.topology.routing import ClientNetworkModel


class RecordingObserver:
    def __init__(self):
        self.sends = []
        self.delivers = []
        self.drops = []

    def on_send(self, packet, now):
        self.sends.append((packet.kind, packet.src, packet.dst, now))

    def on_deliver(self, packet, now):
        self.delivers.append((packet.kind, packet.src, packet.dst, now))

    def on_drop(self, packet, now, reason):
        self.drops.append((packet.kind, reason))


def make_fabric(n=4, latency=10.0, **config_kwargs):
    sim = Simulator(seed=1)
    model = ClientNetworkModel.uniform(n, latency_ms=latency)
    config_kwargs.setdefault("bandwidth_bytes_per_ms", None)
    fabric = NetworkFabric(sim, model, FabricConfig(**config_kwargs))
    return sim, fabric


def packet(src=0, dst=1, kind="MSG", size=100):
    return Packet(src=src, dst=dst, kind=kind, payload="x", size_bytes=size)


def test_delivery_after_model_latency():
    sim, fabric = make_fabric()
    got = []
    fabric.register(1, lambda p: got.append((p.payload, sim.now)))
    fabric.send(packet())
    sim.run()
    assert got == [("x", 10.0)]


def test_serialization_adds_to_latency():
    sim, fabric = make_fabric(bandwidth_bytes_per_ms=100.0)
    got = []
    fabric.register(1, lambda p: got.append(sim.now))
    fabric.send(packet(size=500))  # 5 ms serialization + 10 ms propagation
    sim.run()
    assert got == [pytest.approx(15.0)]


def test_loss_drops_packets():
    sim, fabric = make_fabric()
    observer = RecordingObserver()
    fabric.set_observer(observer)
    fabric.register(1, lambda p: pytest.fail("must not deliver"))
    # All-links loss, the shape GrayFailurePlan(lossy_link_fraction=1.0)
    # applies.
    for src in range(4):
        for dst in range(4):
            if src != dst:
                fabric.set_link(src, dst, LinkProfile(loss_probability=1.0))
    assert fabric.send(packet()) is None
    sim.run()
    assert observer.drops == [("MSG", "link-loss")]


def test_silenced_sender_and_receiver():
    sim, fabric = make_fabric()
    observer = RecordingObserver()
    fabric.set_observer(observer)
    fabric.register(1, lambda p: pytest.fail("must not deliver"))
    fabric.register(2, lambda p: pytest.fail("must not deliver"))

    fabric.silence(0)
    assert fabric.send(packet(src=0, dst=1)) is None

    fabric.silence(1)
    fabric.send(packet(src=3, dst=1))
    sim.run()
    reasons = [r for _, r in observer.drops]
    assert reasons == ["sender-silenced", "receiver-silenced"]
    assert [fabric.is_silenced(n) for n in range(4)] == [True, True, False, False]


def test_silencing_mid_flight_drops_at_destination():
    sim, fabric = make_fabric()
    got = []
    fabric.register(1, got.append)
    fabric.send(packet())
    fabric.silence(1)  # packet is in flight
    sim.run()
    assert got == []


def test_lost_callback_sees_only_drops_on_arrival():
    """``lost`` runs for a packet that was in flight when an end was
    silenced, and for nothing delivered or dropped at the source."""
    sim, fabric = make_fabric()
    got, lost = [], []
    fabric.register(1, got.append, lost.append)
    fabric.register(2, got.append, lost.append)
    delivered = packet(src=3, dst=2)
    from_silenced = packet(src=0, dst=1)
    to_silenced = packet(src=3, dst=1)
    for sent in (delivered, from_silenced, to_silenced):
        fabric.send(sent)
    fabric.silence(0)  # while all three are in flight
    fabric.silence(1)
    fabric.send(packet(src=0, dst=2))  # dropped at the source
    sim.run()
    assert got == [delivered]
    assert lost == [from_silenced, to_silenced]


def test_abort_cancels_in_flight():
    sim, fabric = make_fabric()
    observer = RecordingObserver()
    fabric.set_observer(observer)
    fabric.register(1, lambda p: pytest.fail("must not deliver"))
    receipt = fabric.send(packet())
    fabric.abort(receipt)
    sim.run()
    assert observer.drops == [("MSG", "purged")]


def test_observer_sees_send_and_deliver():
    sim, fabric = make_fabric()
    observer = RecordingObserver()
    fabric.set_observer(observer)
    fabric.register(1, lambda p: None)
    fabric.send(packet())
    sim.run()
    assert observer.sends == [("MSG", 0, 1, 0.0)]
    assert observer.delivers == [("MSG", 0, 1, 10.0)]


def test_duplicate_registration_rejected():
    _, fabric = make_fabric()
    fabric.register(1, lambda p: None)
    with pytest.raises(ValueError):
        fabric.register(1, lambda p: None)


def test_unknown_node_rejected():
    _, fabric = make_fabric(n=3)
    with pytest.raises(ValueError):
        fabric.silence(7)


def test_abort_and_midflight_drop_reasons_reach_recorder():
    """purged / sender-silenced / receiver-silenced all land in the
    metrics recorder's drop counters, including drops decided
    mid-flight."""
    sim, fabric = make_fabric()
    recorder = MetricsRecorder()
    fabric.set_observer(recorder)
    fabric.register(1, lambda p: pytest.fail("must not deliver"))

    receipt = fabric.send(packet())  # will be aborted (buffer purge)
    fabric.abort(receipt)

    fabric.send(packet(src=2, dst=1))  # sender silenced mid-flight
    fabric.silence(2)

    sim.run()
    fabric.send(packet(src=3, dst=1))  # receiver silenced mid-flight
    fabric.silence(1)
    sim.run()

    assert recorder.dropped_packets["purged"] == 1
    assert recorder.dropped_packets["sender-silenced"] == 1
    assert recorder.dropped_packets["receiver-silenced"] == 1


def test_abort_after_delivery_is_noop():
    sim, fabric = make_fabric()
    observer = RecordingObserver()
    fabric.set_observer(observer)
    fabric.register(1, lambda p: None)
    receipt = fabric.send(packet())
    sim.run()
    fabric.abort(receipt)  # already delivered; nothing to cancel
    assert observer.drops == []
    assert observer.delivers != []


# -- link loss -----------------------------------------------------------------


def test_link_loss_is_directional():
    sim, fabric = make_fabric()
    observer = RecordingObserver()
    fabric.set_observer(observer)
    got = []
    fabric.register(0, lambda p: got.append(("rev", sim.now)))
    fabric.register(1, lambda p: got.append(("fwd", sim.now)))
    fabric.set_link(0, 1, LinkProfile(loss_probability=1.0))
    assert fabric.send(packet(src=0, dst=1)) is None  # impaired direction
    fabric.send(packet(src=1, dst=0))  # reverse is untouched
    sim.run()
    assert [kind for kind, _ in got] == ["rev"]
    assert ("MSG", "link-loss") in observer.drops


def test_link_profile_validation():
    with pytest.raises(ValueError):
        LinkProfile(loss_probability=1.5)


# -- a link table that changes nothing changes no run ---------------------------


def run_spec(monkeypatch, factory, lossless_link):
    """``run_experiment`` on the canonical model; with ``lossless_link``
    a zero-loss profile on one directed link makes the link table
    non-empty without changing any packet."""
    tables = []

    def build(*args, **kwargs):
        cluster = Cluster(*args, **kwargs)
        if lossless_link:
            cluster.fabric.set_link(0, 1, LinkProfile())
        tables.append(cluster.fabric.link_profile(0, 1))
        return cluster

    monkeypatch.setattr(runner, "Cluster", build)
    spec = dataclasses.replace(canonical_spec("flat"), strategy_factory=factory)
    result = runner.run_experiment(canonical_model(), spec)
    assert tables == [LinkProfile() if lossless_link else None]
    return result


@pytest.mark.parametrize(
    "factory",
    [flat_factory(1.0), radius_factory(CANONICAL_PARAMS)],
    ids=["flat-1.0", "radius"],
)
def test_lossless_link_table_changes_no_run(monkeypatch, factory):
    """The send loop looks links up only when the table is non-empty;
    the lookup draws nothing and moves nothing."""
    empty = run_spec(monkeypatch, factory, lossless_link=False)
    lossless = run_spec(monkeypatch, factory, lossless_link=True)
    assert trace_digest(empty) == trace_digest(lossless)
    for counter in (
        "sent_packets",
        "sent_bytes",
        "link_payload_counts",
        "delivered_packets",
        "dropped_packets",
    ):
        assert getattr(empty.recorder, counter) == getattr(lossless.recorder, counter)
    assert empty.recorder.sent_packets["MSG"] > 0


@pytest.mark.parametrize("lossless_link", [False, True], ids=["empty", "lossless"])
def test_refused_sends_are_observed_exactly_once(lossless_link):
    sim = Simulator(seed=1)
    fabric = NetworkFabric(sim, ClientNetworkModel.uniform(4, latency_ms=10.0))
    recorder = MetricsRecorder()
    fabric.set_observer(recorder)
    for node in range(4):
        fabric.register(node, lambda packet: None)
    if lossless_link:
        fabric.set_link(2, 3, LinkProfile())
    fabric.set_link(0, 2, LinkProfile(loss_probability=1.0))

    def send(src, dst):
        return fabric.send(Packet(src, dst, "MSG", None, 100))

    assert send(0, 2) is None
    assert send(0, 1) is not None
    assert send(2, 3) is not None
    fabric.silence(2)
    assert send(2, 3) is None
    sim.run()

    assert recorder.sent_packets == {"MSG": 4}
    assert recorder.dropped_packets == {"link-loss": 1, "sender-silenced": 2}
    assert recorder.delivered_packets == {"MSG": 1}
