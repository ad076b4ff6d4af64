"""Pub/sub application layer tests."""

from __future__ import annotations

from repro.app.pubsub import PubSub
from repro.gossip.config import GossipConfig
from repro.network.fabric import LinkProfile
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.strategies.flat import PureEagerStrategy, PureLazyStrategy
from repro.topology.simple import complete_topology


def make_pubsub(n=10, strategy=None, seed=23):
    model = complete_topology(n, latency_ms=10.0)
    cluster = Cluster(
        model,
        strategy or (lambda ctx: PureEagerStrategy()),
        config=ClusterConfig(gossip=GossipConfig(fanout=5, rounds=4)),
        seed=seed,
    )
    pubsub = PubSub(cluster)
    cluster.start()
    cluster.run_for(2_000.0)
    return cluster, pubsub


def test_subscribers_receive_their_topic():
    cluster, pubsub = make_pubsub()
    inbox = []
    pubsub.subscribe(3, "news", inbox.append)
    pubsub.publish(0, "news", {"headline": "hello"})
    cluster.run_for(3_000.0)
    cluster.stop()
    assert len(inbox) == 1
    message = inbox[0]
    assert message.topic == "news"
    assert message.data == {"headline": "hello"}
    assert message.publisher == 0
    assert message.sequence == 0


def test_topic_isolation():
    cluster, pubsub = make_pubsub()
    news, sport = [], []
    pubsub.subscribe(4, "news", news.append)
    pubsub.subscribe(4, "sport", sport.append)
    pubsub.publish(0, "news", "n1")
    pubsub.publish(1, "sport", "s1")
    cluster.run_for(3_000.0)
    cluster.stop()
    assert [m.data for m in news] == ["n1"]
    assert [m.data for m in sport] == ["s1"]


def test_every_subscriber_node_receives_every_message():
    cluster, pubsub = make_pubsub(n=12)
    inboxes = {node: [] for node in range(12)}
    for node in range(12):
        pubsub.subscribe(node, "t", inboxes[node].append)
    for index in range(5):
        pubsub.publish(index % 12, "t", index)
        cluster.run_for(500.0)
    cluster.run_for(3_000.0)
    cluster.stop()
    for node in range(12):
        assert sorted(m.data for m in inboxes[node]) == [0, 1, 2, 3, 4]


def test_sequences_increase_per_publisher_topic():
    cluster, pubsub = make_pubsub()
    assert pubsub.publish(0, "a", "x") == 0
    assert pubsub.publish(0, "a", "y") == 1
    assert pubsub.publish(0, "b", "z") == 0
    assert pubsub.publish(1, "a", "w") == 0


def test_unsubscribe_stops_delivery():
    cluster, pubsub = make_pubsub()
    inbox = []
    pubsub.subscribe(2, "t", inbox.append)
    assert pubsub.unsubscribe(2, "t", inbox.append)
    assert not pubsub.unsubscribe(2, "t", inbox.append)
    pubsub.publish(0, "t", "gone")
    cluster.run_for(2_000.0)
    cluster.stop()
    assert inbox == []


def test_reordering_heals_missing_count():
    """Out-of-order lazy deliveries register as transient gaps that
    clear once the stragglers arrive."""
    cluster, pubsub = make_pubsub(strategy=lambda ctx: PureLazyStrategy())
    pubsub.subscribe(5, "t", lambda m: None)
    for index in range(6):
        pubsub.publish(0, "t", index)
    cluster.run_for(10_000.0)
    cluster.stop()
    assert pubsub.missing_count(5) == 0


def test_real_loss_shows_as_lasting_gap():
    cluster, pubsub = make_pubsub(n=8)
    pubsub.publish(0, "t", "seq0")
    cluster.run_for(2_000.0)
    # Node 5 misses sequence 1 entirely: every link into it drops all
    # packets for the publish, then heals.
    fabric = cluster.fabric
    senders = [src for src in range(8) if src != 5]
    for src in senders:
        fabric.set_link(src, 5, LinkProfile(loss_probability=1.0))
    pubsub.publish(0, "t", "seq1")
    cluster.run_for(3_000.0)
    for src in senders:
        fabric.set_link(src, 5, LinkProfile())
    pubsub.publish(0, "t", "seq2")
    cluster.run_for(3_000.0)
    cluster.stop()
    assert pubsub.missing_count(5) == 1
