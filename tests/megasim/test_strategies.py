"""Strategy compilation: event-kernel factories into vector evaluators."""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.experiments.scenarios import (
    ScenarioParams,
    NoisyFactory,
    flat_factory,
    hybrid_factory,
    radius_factory,
    ranked_factory,
    ttl_factory,
)
from repro.megasim.adapter import METRIC_DISTANCE, METRIC_LATENCY, UniformTopology
from repro.megasim.strategies import (
    CompiledStrategy,
    FlatEvaluator,
    HybridEvaluator,
    RadiusEvaluator,
    RankedEvaluator,
    TtlEvaluator,
    UnsupportedStrategyError,
    compile_strategy,
    ms_to_rounds,
)

TOPOLOGY = UniformTopology(20, latency_ms=50.0)


def ids(*values: int) -> "np.ndarray":
    return np.asarray(values, dtype=np.int32)


class TestMsToRounds:
    def test_exact_multiples(self) -> None:
        assert ms_to_rounds(0.0, 50.0) == 0
        assert ms_to_rounds(100.0, 50.0) == 2
        assert ms_to_rounds(400.0, 50.0) == 8

    def test_rounds_to_nearest(self) -> None:
        assert ms_to_rounds(60.0, 50.0) == 1
        assert ms_to_rounds(20.0, 50.0) == 0

    def test_rejects_bad_inputs(self) -> None:
        with pytest.raises(ValueError):
            ms_to_rounds(-1.0, 50.0)
        with pytest.raises(ValueError):
            ms_to_rounds(10.0, 0.0)


class TestCompilation:
    def test_flat(self) -> None:
        compiled = compile_strategy(flat_factory(0.3), TOPOLOGY)
        assert isinstance(compiled.evaluator, FlatEvaluator)
        assert compiled.first_delay_rounds == 0
        assert not compiled.nearest_source
        assert compiled.uses_rng

    def test_flat_degenerate_ends_are_drawless(self) -> None:
        assert not compile_strategy(flat_factory(1.0), TOPOLOGY).uses_rng
        assert not compile_strategy(flat_factory(0.0), TOPOLOGY).uses_rng

    def test_ttl(self) -> None:
        compiled = compile_strategy(ttl_factory(2), TOPOLOGY)
        assert isinstance(compiled.evaluator, TtlEvaluator)
        assert not compiled.uses_rng

    def test_radius_uses_factory_metric_and_delay(self) -> None:
        params = ScenarioParams(radius_first_delay_ms=100.0)
        compiled = compile_strategy(
            radius_factory(params, "distance"), TOPOLOGY
        )
        assert isinstance(compiled.evaluator, RadiusEvaluator)
        assert compiled.nearest_source
        assert compiled.metric_kind == METRIC_DISTANCE
        assert compiled.first_delay_rounds == 2

    def test_ranked_marks_best_fraction(self) -> None:
        compiled = compile_strategy(ranked_factory(), TOPOLOGY)
        assert isinstance(compiled.evaluator, RankedEvaluator)
        # 20 nodes at the default 0.2 fraction -> ids 0..3 on the
        # all-ties uniform model (stable-sort order).
        assert compiled.evaluator.best.sum() == 4
        assert compiled.evaluator.best[:4].all()

    def test_hybrid(self) -> None:
        compiled = compile_strategy(hybrid_factory(), TOPOLOGY)
        assert isinstance(compiled.evaluator, HybridEvaluator)
        assert compiled.nearest_source
        assert compiled.metric_kind == METRIC_LATENCY

    def test_retry_floor_exceeds_pull_round_trip(self) -> None:
        compiled = compile_strategy(
            flat_factory(0.0), TOPOLOGY, retry_period_ms=50.0
        )
        assert compiled.retry_rounds == 3

    def test_retry_default_is_eight_slots(self) -> None:
        compiled = compile_strategy(flat_factory(0.0), TOPOLOGY)
        assert compiled.retry_rounds == 8

    @pytest.mark.parametrize(
        "factory", [NoisyFactory(flat_factory(1.0), noise=0.1)], ids=["noisy"]
    )
    def test_monitor_driven_factories_rejected(self, factory) -> None:
        with pytest.raises(UnsupportedStrategyError):
            compile_strategy(factory, TOPOLOGY)

    def test_compiled_strategy_validates(self) -> None:
        evaluator = TtlEvaluator(1)
        with pytest.raises(ValueError):
            CompiledStrategy(
                evaluator, first_delay_rounds=0, retry_rounds=2,
                nearest_source=False,
            )
        with pytest.raises(ValueError):
            CompiledStrategy(
                evaluator, first_delay_rounds=-1, retry_rounds=8,
                nearest_source=False,
            )


class TestEvaluators:
    def test_flat_extremes(self) -> None:
        rng = np.random.default_rng(0)
        src, dst, rnd = ids(0, 1, 2), ids(3, 4, 5), ids(1, 2, 3)
        assert FlatEvaluator(1.0).eager_mask(src, dst, rnd, rng).all()
        assert not FlatEvaluator(0.0).eager_mask(src, dst, rnd, rng).any()

    def test_flat_probability_is_seed_deterministic(self) -> None:
        src = np.zeros(1000, dtype=np.int32)
        a = FlatEvaluator(0.4).eager_mask(
            src, src, src, np.random.default_rng(7)
        )
        b = FlatEvaluator(0.4).eager_mask(
            src, src, src, np.random.default_rng(7)
        )
        assert np.array_equal(a, b)
        assert 300 < a.sum() < 500

    def test_ttl_threshold(self) -> None:
        rng = np.random.default_rng(0)
        mask = TtlEvaluator(2).eager_mask(
            ids(0, 0, 0), ids(1, 1, 1), ids(1, 2, 3), rng
        )
        assert mask.tolist() == [True, False, False]

    def test_radius_threshold_on_distance(self) -> None:
        rng = np.random.default_rng(0)
        evaluator = RadiusEvaluator(TOPOLOGY, METRIC_DISTANCE, 2.5)
        mask = evaluator.eager_mask(ids(0, 0, 0), ids(1, 2, 9), ids(1, 1, 1), rng)
        assert mask.tolist() == [True, True, False]

    def test_ranked_either_endpoint(self) -> None:
        rng = np.random.default_rng(0)
        best = np.zeros(20, dtype=bool)
        best[3] = True
        evaluator = RankedEvaluator(best)
        mask = evaluator.eager_mask(
            ids(3, 10, 10), ids(11, 3, 12), ids(1, 1, 1), rng
        )
        assert mask.tolist() == [True, True, False]

    def test_hybrid_widens_radius_early(self) -> None:
        rng = np.random.default_rng(0)
        best = np.zeros(20, dtype=bool)
        evaluator = HybridEvaluator(best, TOPOLOGY, METRIC_LATENCY, 60.0, 2)
        # Uniform latency 50: within 2*60 always, within 60 always too;
        # shrink radius to 40 so only the early rounds qualify.
        evaluator = HybridEvaluator(best, TOPOLOGY, METRIC_LATENCY, 40.0, 2)
        mask = evaluator.eager_mask(
            ids(0, 0), ids(1, 1), ids(1, 3), rng
        )
        assert mask.tolist() == [True, False]

    def test_hybrid_best_sender_always_eager(self) -> None:
        rng = np.random.default_rng(0)
        best = np.zeros(20, dtype=bool)
        best[0] = True
        evaluator = HybridEvaluator(best, TOPOLOGY, METRIC_LATENCY, 1.0, 0)
        mask = evaluator.eager_mask(ids(0, 1), ids(2, 2), ids(5, 5), rng)
        assert mask.tolist() == [True, False]
