"""Ablations of the design decisions in DESIGN.md section 5."""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.figures import build_model
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import (
    DEFAULT_PARAMS,
    radius_factory,
    radius_measured_factory,
    ranked_factory,
    ranked_gossip_factory,
)
from repro.experiments.workload import TrafficConfig
from repro.monitors.ranking import RankingConfig
from repro.scheduler.interfaces import SchedulerConfig
from repro.strategies.flat import PureLazyStrategy
from tests.paper import BENCH, bench_cluster


def test_first_request_delay_tradeoff():
    """Decision 1: Radius delays the first IWANT by ``T0`` so in-radius
    eager copies win the race.  Dropping the delay buys latency at the
    price of duplicate fetches of payloads already on their way."""
    model = build_model(BENCH)
    by_t0 = {}
    for offset, t0 in enumerate((0.0, 60.0, 150.0)):
        params = replace(DEFAULT_PARAMS, radius_first_delay_ms=t0)
        spec = BENCH.spec(radius_factory(params), seed=BENCH.seed + 7000 + offset)
        by_t0[t0] = run_experiment(model, spec).summary
    assert all(s.delivery_ratio > 0.99 for s in by_t0.values())
    # No delay -> more duplicate payload fetches than the delayed variants.
    assert by_t0[0.0].payload_per_delivery >= by_t0[60.0].payload_per_delivery
    assert by_t0[0.0].payload_per_delivery >= by_t0[150.0].payload_per_delivery
    # And the delay costs latency, as expected.
    assert by_t0[150.0].mean_latency_ms >= by_t0[0.0].mean_latency_ms * 0.95


def test_retransmission_period_sweep():
    """Decision 2: the paper picks T = 400 ms as "the minimal that
    results in approximately 1 payload received by each destination when
    using a fully lazy push strategy" (section 5.2).  Aggressive periods
    trigger duplicate requests to alternate sources; past 400 ms a larger
    T buys nothing."""
    model = build_model(BENCH)
    by_t = {}
    for offset, period in enumerate((50.0, 100.0, 200.0, 400.0, 800.0)):
        spec = BENCH.spec(
            lambda ctx, period=period: PureLazyStrategy(retry_period_ms=period),
            seed=BENCH.seed + 8000 + offset,
            cluster=bench_cluster(scheduler=SchedulerConfig(retry_period_ms=period)),
        )
        by_t[period] = run_experiment(model, spec)
    assert all(r.summary.delivery_ratio > 0.99 for r in by_t.values())
    # Paper defaults never stall-escalate (the subsystem is opt-in).
    assert all(r.recovery.get("recovery_stalls", 0) == 0 for r in by_t.values())
    payload = {t: r.summary.payload_per_delivery for t, r in by_t.items()}
    iwants = {t: r.recorder.sent_packets.get("IWANT", 0) for t, r in by_t.items()}
    # The paper's choice achieves ~1 payload per delivery.
    assert payload[400.0] < 1.15
    # Aggressive retries cost duplicate payloads and extra requests.
    assert payload[50.0] > payload[400.0]
    assert iwants[50.0] > iwants[400.0]
    # Past the knee, larger T buys (almost) nothing.
    assert payload[800.0] <= payload[400.0] + 0.05


def test_measured_monitors_match_oracle_structure():
    """Decision 4: the paper drives strategies from the model file to
    isolate strategy quality from monitor quality (section 4.3) and
    argues approximate knowledge suffices.  Radius over the runtime
    PING/PONG monitor and Ranked over the distributed gossip ranking must
    keep the oracle's structure."""
    model = build_model(BENCH)
    best_count = max(1, round(BENCH.clients * DEFAULT_PARAMS.ranked_fraction))
    gossip_ranking = bench_cluster(
        enable_latency_monitor=True,
        enable_gossip_ranking=True,
        ranking=RankingConfig(best_count=best_count, list_capacity=best_count * 4),
    )
    # series -> (factory, cluster override, warm-up long enough to converge)
    series = {
        "radius/oracle": (radius_factory(DEFAULT_PARAMS), None, BENCH.warmup_ms),
        "radius/measured": (
            radius_measured_factory(DEFAULT_PARAMS),
            bench_cluster(enable_latency_monitor=True),
            12_000.0,
        ),
        "ranked/oracle": (ranked_factory(DEFAULT_PARAMS), None, BENCH.warmup_ms),
        "ranked/gossip": (ranked_gossip_factory(), gossip_ranking, 15_000.0),
    }
    summary = {}
    for offset, (label, (factory, override, warmup)) in enumerate(series.items()):
        spec = BENCH.spec(factory, seed=BENCH.seed + 9000 + offset, cluster=override)
        summary[label] = run_experiment(model, replace(spec, warmup_ms=warmup)).summary
    assert all(s.delivery_ratio > 0.99 for s in summary.values())
    # Measured monitors keep the emergent structure within a reasonable
    # band of the oracle's.
    assert (
        summary["radius/measured"].top_link_share
        > 0.5 * summary["radius/oracle"].top_link_share
    )
    assert (
        summary["ranked/gossip"].top_link_share
        > 0.5 * summary["ranked/oracle"].top_link_share
    )
    # Traffic volume in the same regime.
    assert (
        abs(
            summary["radius/measured"].payload_per_delivery
            - summary["radius/oracle"].payload_per_delivery
        )
        < 1.5
    )


def test_ihave_batching_tradeoff():
    """The paper's model sends one IHAVE per (message, destination);
    production descendants (NeEM buffering, gossipsub heartbeats) batch
    control traffic.  Under pure lazy push at a rate that puts several
    messages in each window, batching cuts packets and bytes at the
    price of the window's worth of latency per lazy hop."""
    model = build_model(BENCH)
    # ~40 messages/s aggregate: several messages per batching window.
    high_rate = TrafficConfig(messages=120, mean_interval_ms=25.0)
    by_window = {}
    for offset, window in enumerate((0.0, 25.0, 100.0)):
        spec = BENCH.spec(
            lambda ctx: PureLazyStrategy(),
            seed=BENCH.seed + 400 + offset,
            cluster=bench_cluster(scheduler=SchedulerConfig(ihave_batch_window_ms=window)),
        )
        by_window[window] = run_experiment(model, replace(spec, traffic=high_rate))
    assert all(r.summary.delivery_ratio > 0.99 for r in by_window.values())
    packets = {w: r.recorder.sent_packets["IHAVE"] for w, r in by_window.items()}
    sent_bytes = {w: r.recorder.sent_bytes["IHAVE"] for w, r in by_window.items()}
    # Batching cuts control packets and bytes materially.
    assert packets[100.0] < 0.6 * packets[0.0]
    assert sent_bytes[100.0] < 0.8 * sent_bytes[0.0]
    # And costs latency, roughly the window per lazy hop.
    assert (
        by_window[100.0].summary.mean_latency_ms
        > by_window[0.0].summary.mean_latency_ms + 50.0
    )
    # The small window sits in between.
    assert packets[0.0] > packets[25.0] > packets[100.0]
