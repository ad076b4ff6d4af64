"""Extensions beyond the paper's evaluation: adaptive budgets, capacity-
aware hubs, throughput stability."""

from __future__ import annotations

from repro.experiments.figures import build_model
from repro.experiments.runner import run_experiment
from repro.experiments.stability import stability_grid
from repro.experiments.workload import TrafficGenerator
from repro.metrics.analysis import summarize
from repro.metrics.recorder import MetricsRecorder
from repro.monitors.oracle import OracleLatencyMonitor
from repro.monitors.ranking import ScoreRanking
from repro.runtime.cluster import Cluster
from repro.strategies.adaptive import AdaptiveRadiusStrategy
from repro.strategies.ranked import RankedStrategy
from tests.paper import BENCH, bench_cluster


def test_adaptive_budget_tracking():
    """The self-tuning radius lands near its eager-rate budget, and more
    budget buys latency for payload -- the "adaptive protocols" outlook
    of the paper's conclusion, measured."""
    model = build_model(BENCH)
    rows = []
    for offset, target in enumerate((0.1, 0.3, 0.6)):

        def factory(ctx, target=target):
            return AdaptiveRadiusStrategy(
                OracleLatencyMonitor(ctx.model, ctx.node),
                target_eager_rate=target,
                initial_radius=20.0,
                first_request_delay_ms=60.0,
                window=40,
            )

        result = run_experiment(
            model, BENCH.spec(factory, seed=BENCH.seed + 100 + offset)
        )
        sent = result.recorder.sent_packets
        eager_sends = sent.get("MSG", 0) - sent.get("IWANT", 0)
        achieved = eager_sends / max(1, eager_sends + sent.get("IHAVE", 0))
        rows.append((target, achieved, result.summary))
    assert all(summary.delivery_ratio > 0.99 for _, _, summary in rows)
    # Proportional tracking: the whole-run average includes the ramp-up
    # transient, which biases every budget low by a similar factor; the
    # convergence itself is unit-tested in tests/strategies/test_adaptive.py.
    for target, achieved, _ in rows:
        assert 0.5 * target < achieved < 1.3 * target
    # More budget buys lower latency and costs more payload.
    latencies = [summary.mean_latency_ms for _, _, summary in rows]
    payloads = [summary.payload_per_delivery for _, _, summary in rows]
    assert latencies == sorted(latencies, reverse=True)
    assert payloads == sorted(payloads)


def test_capacity_aware_hub_selection():
    """Related work the paper cites ([17, 4]) adapts gossip to
    heterogeneous bandwidth; Ranked gives the hook -- pick the well
    provisioned nodes as hubs.  Hub load (~fanout payloads per message)
    serializes on the hub uplink, so the choice shows in latency."""
    model = build_model(BENCH)
    hub_count = max(1, round(0.2 * BENCH.clients))
    fast_nodes = set(range(hub_count))
    slow_nodes = set(range(BENCH.clients - hub_count, BENCH.clients))
    # bytes/ms: 20 Mbit/s against 0.2 Mbit/s, where hub load visibly queues.
    bandwidth = {
        node: (2_500.0 if node in fast_nodes else 25.0)
        for node in range(BENCH.clients)
    }

    def run_with_hubs(hubs, seed_offset):
        ranking = ScoreRanking(
            {node: (0.0 if node in hubs else 1.0) for node in range(model.size)},
            count=len(hubs),
        )
        recorder = MetricsRecorder()
        recorder.disable()
        cluster = Cluster(
            model,
            lambda ctx: RankedStrategy(ctx.node, ranking, ctx.retry_period_ms),
            config=bench_cluster(),
            seed=BENCH.seed + 300 + seed_offset,
            node_bandwidth=bandwidth,
        )
        cluster.fabric.set_observer(recorder)
        cluster.set_multicast_hook(recorder.on_multicast)
        cluster.set_deliver(
            lambda node, mid, payload: recorder.on_app_deliver(
                node, mid, cluster.sim.now
            )
        )
        cluster.start()
        cluster.run_for(BENCH.warmup_ms)
        recorder.enable()
        generator = TrafficGenerator(
            cluster, senders=list(range(model.size)), config=BENCH.traffic()
        )
        generator.start()
        while not generator.finished:
            cluster.run_for(5_000.0)
        cluster.run_for(8_000.0)
        cluster.stop()
        return summarize(recorder, expected_receivers=model.size)

    aware = run_with_hubs(fast_nodes, 0)
    adversarial = run_with_hubs(slow_nodes, 1)
    # Both remain reliable (correctness never depends on the choice)...
    assert aware.delivery_ratio > 0.99 and adversarial.delivery_ratio > 0.99
    # ...but putting hub load on slow uplinks costs serious latency.
    assert adversarial.mean_latency_ms > 1.3 * aware.mean_latency_ms


def test_throughput_stability_across_failure():
    """Section 7's argument ([1]'s throughput stability problem) as a
    timeline: steady traffic, 20% of the most central nodes killed
    mid-run -- gossip flows through, the unrepaired tree stalls."""
    rows = stability_grid(
        build_model(BENCH),
        failed_fractions=[0.2],
        messages=60,
        interval_ms=250.0,
        window_ms=1_000.0,
        # Relative to the gossip run's clock (after the 5 s warm-up).
        failure_at_ms=7_500.0,
        warmup_ms=5_000.0,
        workers=2,
    )
    by_system = {row["system"]: row for row in rows}
    gossip, tree = by_system["gossip eager"], by_system["tree (no repair)"]
    # Gossip keeps at least the surviving nodes' share (80%) minus noise.
    assert gossip["retained_pct"] > 70.0
    # The unrepaired tree loses far more than its dead nodes' share.
    assert tree["retained_pct"] < gossip["retained_pct"] - 10.0
