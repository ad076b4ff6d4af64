"""The paper's figures at BENCH scale.

Each test asserts the *shape* the paper reports for one table/figure
(who wins, direction of trends) on a reduced population, so the whole
module runs in seconds; paper-scale numbers are in EXPERIMENTS.md.  The
last section pins the one sweep path underneath Figs. 4-6.
"""

from __future__ import annotations

import pytest

from repro.experiments import figures
from repro.experiments.figures import (
    Scale,
    build_model,
    figure4,
    figure5a,
    figure5b,
    figure5c,
    figure6,
    section51_table,
    section54_statistics,
)
from tests.paper import BENCH


@pytest.fixture(scope="module")
def fig5a_rows():
    return figure5a(BENCH, workers=2)


def test_model_is_cached():
    assert build_model(BENCH) is build_model(BENCH)


def test_section51_table_structure():
    rows = section51_table(BENCH)
    assert {row["statistic"] for row in rows} == {
        "mean hop distance",
        "pairs within 5-6 hops (%)",
        "mean end-to-end latency (ms)",
        "pairs within 39-60 ms (%)",
    }
    latency_row = next(r for r in rows if "latency" in r["statistic"])
    assert latency_row["measured"] == pytest.approx(49.83, abs=0.01)


def test_figure5a_eager_lazy_extremes(fig5a_rows):
    """Paper: Flat traces 480 ms @ 1 payload/msg down to 227 ms @ 11
    (the fanout)."""
    by_param = {(r["series"], r["param"]): r for r in fig5a_rows}
    lazy = by_param[("flat", "p=0.0")]
    eager = by_param[("flat", "p=1.0")]
    # Lazy: ~1 payload per delivery, slow.  Eager: ~fanout, fast.
    assert lazy["payload_per_msg"] == pytest.approx(1.0, abs=0.2)
    assert eager["payload_per_msg"] == pytest.approx(11.0, abs=1.0)
    # Lazy pays round trips: much slower than eager.
    assert lazy["latency_ms"] > 1.8 * eager["latency_ms"]
    # The flat curve is monotone: more payload, less latency.
    flat_rows = [r for r in fig5a_rows if r["series"] == "flat"]
    by_payload = sorted(flat_rows, key=lambda r: r["payload_per_msg"])
    latencies = [r["latency_ms"] for r in by_payload]
    assert latencies == sorted(latencies, reverse=True)


def _flat_near(rows, row):
    """The flat-curve point at the payload cost closest to ``row``'s."""
    return min(
        (r for r in rows if r["series"] == "flat"),
        key=lambda r: abs(r["payload_per_msg"] - row["payload_per_msg"]),
    )


def test_figure5a_ttl_beats_flat_tradeoff(fig5a_rows):
    """Paper: TTL reaches ~250 ms at only 1.7 payload/msg."""
    by_param = {(r["series"], r["param"]): r for r in fig5a_rows}
    lazy = by_param[("flat", "p=0.0")]
    ttl = by_param[("TTL", "u=2")]
    # At (near) equal payload cost, TTL is substantially faster.
    assert ttl["payload_per_msg"] < lazy["payload_per_msg"] + 0.5
    assert ttl["latency_ms"] < lazy["latency_ms"]
    # TTL dominates the flat curve: at similar payload, lower latency.
    ttl_best = min(
        (r for r in fig5a_rows if r["series"] == "TTL"),
        key=lambda r: r["latency_ms"] * r["payload_per_msg"],
    )
    assert ttl_best["latency_ms"] <= _flat_near(fig5a_rows, ttl_best)["latency_ms"] * 1.05


def test_figure5a_includes_ranked_series(fig5a_rows):
    by_series = {row["series"]: row for row in fig5a_rows}
    assert {"ranked (all)", "ranked (low)", "radius"} <= set(by_series)
    # Ranked improves on Flat at comparable traffic; Radius does not
    # beat the flat curve (the paper's negative result).
    ranked, radius = by_series["ranked (all)"], by_series["radius"]
    assert ranked["latency_ms"] < _flat_near(fig5a_rows, ranked)["latency_ms"] * 1.15
    assert radius["latency_ms"] > _flat_near(fig5a_rows, radius)["latency_ms"] * 0.9


def test_figure4_structure_ordering():
    """Paper: eager push spreads traffic evenly (top 5% of connections
    carry ~7%); Radius concentrates ~37% on short links (a mesh); Ranked
    ~30% through hub nodes."""
    rows = figure4(BENCH)
    shares = {row["series"]: row["top5_share_pct"] for row in rows}
    assert shares["flat (eager)"] < 15.0
    # Environment-aware strategies concentrate traffic; eager does not.
    assert shares["radius"] > 1.8 * shares["flat (eager)"]
    assert shares["ranked"] > 1.2 * shares["flat (eager)"]


def test_figure5b_reliability_shape():
    """Paper: atomic delivery with no failures; graceful degradation
    past 20% dead; crucially, the Ranked structure adds no fragility --
    even when the best nodes themselves are killed."""
    rows = figure5b(BENCH, workers=2)
    by_key = {(r["series"], r["dead_pct"]): r["deliveries_pct"] for r in rows}
    for series in ("flat/random", "ranked/random", "ranked/ranked"):
        # No failures -> atomic delivery for every configuration.
        assert by_key[(series, 0.0)] > 99.0
        # Moderate failures: still near-atomic.
        assert by_key[(series, 20.0)] > 95.0
        # Degradation is graceful up to 60%.
        assert by_key[(series, 60.0)] > 60.0
    # Killing the top-ranked nodes is no worse than killing at random
    # (within noise): structure does not create fragility.
    for dead in (20.0, 40.0, 60.0):
        assert by_key[("ranked/ranked", dead)] >= by_key[("ranked/random", dead)] - 12.0


def test_figure5c_hybrid_classes():
    """Paper: regular (80%) nodes get latency 379 -> 245 ms while paying
    only 1.01 -> 1.20 payload/msg; the 20% hubs contribute 10.77 each
    (3.11 overall), versus eager push needing 11 everywhere."""
    rows = figure5c(BENCH, workers=2)
    by_series = {row["series"]: row for row in rows}
    low = by_series["combined (low)"]
    best = by_series["combined (best)"]
    overall = by_series["combined (all)"]
    cheapest_ttl = min(
        (r for r in rows if r["series"] == "TTL"),
        key=lambda r: r["payload_per_msg"],
    )
    # Regular nodes pay near-lazy cost...
    assert low["payload_per_msg"] < 1.6
    # ...but get much better latency than the cheapest TTL point.
    assert low["latency_ms"] < cheapest_ttl["latency_ms"]
    # Hubs carry roughly the fanout's worth of payload -- an order of
    # magnitude more than regular nodes.
    assert 7.0 < best["payload_per_msg"] <= 11.5
    assert best["payload_per_msg"] > 4 * low["payload_per_msg"]
    # Overall average sits far below eager push's fanout cost.
    assert low["payload_per_msg"] < overall["payload_per_msg"] < 5.0


def test_figure6_noise_shape():
    """Paper: the noise wrapper preserves traffic volume (6a) while
    latency degrades gracefully toward the Flat equivalent (6b) and the
    top-5% connection share converges to the unstructured 5% (6c)."""
    rows = figure6(BENCH, workers=2)
    for series in ("radius", "ranked"):
        points = {r["noise_pct"]: r for r in rows if r["series"] == series}
        # (a) payload volume approximately preserved across the sweep
        # (the section 4.3 calibration claim).
        base = points[0.0]["payload_per_msg"]
        for point in points.values():
            assert abs(point["payload_per_msg"] - base) < 0.35 * base + 0.3
        # (a) regular-node payload converges toward the overall average.
        gap_start = abs(points[0.0]["payload_low"] - points[0.0]["payload_per_msg"])
        gap_end = abs(points[100.0]["payload_low"] - points[100.0]["payload_per_msg"])
        assert gap_end < gap_start
        # (c) structure blurs: full noise well below the noiseless
        # concentration.
        assert points[100.0]["top5_share_pct"] < 0.75 * points[0.0]["top5_share_pct"]
    # (b) ranked latency degrades but does not collapse (graceful).
    ranked = {r["noise_pct"]: r for r in rows if r["series"] == "ranked"}
    assert ranked[100.0]["latency_ms"] >= ranked[0.0]["latency_ms"] * 0.95
    assert ranked[100.0]["latency_ms"] < ranked[0.0]["latency_ms"] * 3.0


def test_section54_statistics_accounting():
    """Paper (100 nodes, 400 messages, eager push): 40000 deliveries and
    ~440000 payload packets per run; the same identities hold here."""
    rows = section54_statistics(BENCH)
    values = {row["statistic"]: row["value"] for row in rows}
    assert values["messages multicast"] == BENCH.messages
    # Eager: every alive node delivers every message.
    assert values["messages delivered"] == pytest.approx(
        BENCH.messages * BENCH.clients, rel=0.02
    )
    # Payload packets ~ deliveries x fanout.
    assert values["payload packets transmitted"] == pytest.approx(
        values["messages delivered"] * 11, rel=0.1
    )
    assert values["distinct connections used"] > BENCH.clients


def test_distance_radius_units_tracks_latency_share():
    """The Fig. 4 distance radius is chosen so its in-radius pair share
    matches the latency radius' share."""
    from repro.experiments.figures import _distance_radius_units
    from repro.experiments.scenarios import DEFAULT_PARAMS, radius_calibration

    model = build_model(BENCH)
    units = _distance_radius_units(model, DEFAULT_PARAMS)
    n = model.size
    target = radius_calibration(model, DEFAULT_PARAMS.radius_ms)
    in_radius = sum(
        1
        for i in range(n)
        for j in range(i + 1, n)
        if model.distance(i, j) < units
    )
    share = in_radius / (n * (n - 1) / 2)
    assert share == pytest.approx(target, abs=0.08)


def test_scale_traffic_config():
    assert BENCH.traffic().messages == BENCH.messages


# -- the one sweep path under Figs. 4-6 --------------------------------------------

#: Small enough that 2 x 2 replicated sweeps of every figure take seconds;
#: these tests pin the path, not the shapes.
TINY = Scale("tiny", clients=12, routers=150, messages=6, warmup_ms=3_000.0, seed=3)


@pytest.mark.parametrize(
    "figure, axes",
    [
        (figure4, {}),
        (figure5a, {"flat_probabilities": [1.0], "ttl_rounds": [2]}),
        (figure5b, {"dead_fractions": [0.0, 0.5]}),
        (figure5c, {"ttl_rounds": [2]}),
        (figure6, {"noise_levels": [0.0, 1.0]}),
    ],
    ids=["4", "5a", "5b", "5c", "6"],
)
def test_sweep_replication_is_worker_invariant(figure, axes):
    single = figure(TINY, **axes)
    assert not any(column.endswith("_hw") for row in single for column in row)

    serial = figure(TINY, replications=2, workers=1, **axes)
    pooled = figure(TINY, replications=2, workers=2, **axes)
    assert pooled == serial
    assert len(serial) == len(single)
    for row, one in zip(serial, single):
        # Every metric gains a half-width; the sweep's own axis does not.
        metrics = [
            column
            for column, value in one.items()
            if isinstance(value, float) and column not in ("dead_pct", "noise_pct")
        ]
        assert metrics
        assert set(row) == set(one) | {f"{column}_hw" for column in metrics}


def test_figure4_contract_with_the_perf_harness(monkeypatch):
    """``benchmarks/perf`` wraps the module-global ``run_experiments``
    around a ``figure4(scale, workers=n)`` call and reads
    ``top5_share_pct`` off the flat / radius / ranked rows in that
    order; keep that shape failing here, not in the non-blocking job."""
    calls = []
    inner = figures.run_experiments

    def capture(model, specs, **kwargs):
        calls.append((specs, kwargs))
        return inner(model, specs, **kwargs)

    monkeypatch.setattr(figures, "run_experiments", capture)
    rows = figures.figure4(TINY, workers=2)
    assert [row["series"] for row in rows] == ["flat (eager)", "radius", "ranked"]
    assert all(0.0 < row["top5_share_pct"] <= 100.0 for row in rows)
    [(specs, kwargs)] = calls
    assert [spec.seed for spec in specs] == [TINY.seed + 1000 + i for i in range(3)]
    assert kwargs["workers"] == 2
