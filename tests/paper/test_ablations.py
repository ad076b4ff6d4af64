"""Ablations of the design decisions in DESIGN.md section 5."""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.figures import build_model
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import DEFAULT_PARAMS, radius_factory
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
    payload = {t: r.summary.payload_per_delivery for t, r in by_t.items()}
    iwants = {t: r.recorder.sent_packets.get("IWANT", 0) for t, r in by_t.items()}
    # The paper's choice achieves ~1 payload per delivery.
    assert payload[400.0] < 1.15
    # Aggressive retries cost duplicate payloads and extra requests.
    assert payload[50.0] > payload[400.0]
    assert iwants[50.0] > iwants[400.0]
    # Past the knee, larger T buys (almost) nothing.
    assert payload[800.0] <= payload[400.0] + 0.05
