"""Adapters: topologies in, recorder-schema metrics out."""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from types import SimpleNamespace
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.megasim.adapter as adapter_module

from repro.experiments.scenarios import flat_factory, ttl_factory
from repro.megasim.adapter import (
    METRIC_DISTANCE,
    METRIC_LATENCY,
    DenseTopology,
    PlaneTopology,
    UniformTopology,
    build_views,
    summary_from_outcomes,
)
from repro.megasim.runner import MegasimSpec, run_megasim
from repro.metrics.analysis import summarize
from repro.metrics.recorder import MetricsRecorder
from repro.network.message import control_packet_size, payload_packet_size
from repro.sim.rng import RandomStreams
from repro.topology.routing import ClientNetworkModel
from repro.topology.simple import complete_topology


def ids(*values: int) -> "np.ndarray":
    return np.asarray(values, dtype=np.int32)


class TestDenseTopology:
    def test_uniform_model_is_slot_exact(self) -> None:
        topology = DenseTopology(ClientNetworkModel.uniform(10, 50.0))
        assert topology.is_slot_exact
        assert topology.round_ms == 50.0

    def test_jittered_model_uses_mean_latency(self) -> None:
        model = complete_topology(10, latency_ms=40.0, jitter_ms=10.0, seed=1)
        topology = DenseTopology(model)
        assert not topology.is_slot_exact
        assert topology.round_ms == pytest.approx(model.mean_latency())

    def test_latency_metric_reads_the_matrix(self) -> None:
        model = ClientNetworkModel.uniform(6, 30.0)
        topology = DenseTopology(model)
        metric = topology.metric(METRIC_LATENCY, ids(0, 1), ids(2, 1))
        assert metric.tolist() == [30.0, 0.0]

    def test_distance_metric_matches_model(self) -> None:
        model = ClientNetworkModel.uniform(6, 30.0)
        topology = DenseTopology(model)
        metric = topology.metric(METRIC_DISTANCE, ids(0, 2), ids(3, 5))
        assert metric.tolist() == [
            model.distance(0, 3), model.distance(2, 5),
        ]

    def test_best_mask_matches_oracle_ranking(self) -> None:
        model = complete_topology(20, latency_ms=40.0, jitter_ms=15.0, seed=4)
        topology = DenseTopology(model)
        mask = topology.best_mask(0.2)
        by_closeness = sorted(range(model.size), key=model.closeness)
        assert set(np.flatnonzero(mask).tolist()) == set(by_closeness[:4])
        # A fresh array each call, read from the model's cached set.
        assert np.array_equal(topology.best_mask(0.2), mask)

    def test_unknown_metric_rejected(self) -> None:
        topology = DenseTopology(ClientNetworkModel.uniform(4))
        with pytest.raises(ValueError):
            topology.metric("hops", ids(0), ids(1))


class TestSyntheticTopologies:
    def test_uniform_metric_and_best(self) -> None:
        topology = UniformTopology(10, latency_ms=25.0)
        assert topology.round_ms == 25.0
        latency = topology.metric(METRIC_LATENCY, ids(1, 3), ids(1, 9))
        assert latency.tolist() == [0.0, 25.0]
        assert np.flatnonzero(topology.best_mask(0.2)).tolist() == [0, 1]

    def test_plane_is_seed_deterministic(self) -> None:
        a, b = PlaneTopology(50, seed=5), PlaneTopology(50, seed=5)
        src, dst = ids(0, 10, 20), ids(30, 40, 49)
        assert np.array_equal(
            a.metric(METRIC_DISTANCE, src, dst),
            b.metric(METRIC_DISTANCE, src, dst),
        )
        assert np.array_equal(a.best_mask(0.1), b.best_mask(0.1))
        c = PlaneTopology(50, seed=6)
        assert not np.array_equal(
            a.metric(METRIC_DISTANCE, src, dst),
            c.metric(METRIC_DISTANCE, src, dst),
        )

    @pytest.mark.parametrize(
        "n, side, seed", [(1, 100.0, 0), (7, 3.5, 1), (1000, 100, 5), (20_000, 1e3, 23)]
    )
    def test_plane_positions_match_two_uniform_columns(
        self, n: int, side: float, seed: int
    ) -> None:
        """One ``random((2, n))`` draw scaled in place gives the doubles
        of ``uniform(0, side, n)`` for x and then for y, bit for bit."""
        topology = PlaneTopology(n, seed=seed, side=side)
        rng = np.random.default_rng(
            RandomStreams(seed).derive_seed("megasim.topology.plane")
        )
        px = rng.uniform(0.0, side, n)
        py = rng.uniform(0.0, side, n)
        x, y = topology.positions
        assert x.tobytes() == px.tobytes()
        assert y.tobytes() == py.tobytes()

    def test_plane_latency_equals_distance(self) -> None:
        topology = PlaneTopology(20, seed=0)
        src, dst = ids(2, 4), ids(9, 11)
        assert np.array_equal(
            topology.metric(METRIC_LATENCY, src, dst),
            topology.metric(METRIC_DISTANCE, src, dst),
        )

    def test_best_fraction_bounds(self) -> None:
        with pytest.raises(ValueError):
            UniformTopology(10).best_mask(0.0)
        with pytest.raises(ValueError):
            PlaneTopology(10).best_mask(1.5)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 400),
        share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        block_cells=st.sampled_from([1 << 21, 256]),
    )
    def test_build_views_shape_and_validity(
        self, n: int, share: float, seed: int, block_cells: int
    ) -> None:
        # ``share`` spreads degree over every legal value, 1 and n - 1
        # included: both sides of the redraw / shuffle switch at half.
        # At the real block size these populations are one block; the
        # small one cuts them into many (down to a row each).
        degree = 1 + round(share * (n - 2))
        with patch.object(adapter_module, "_VIEW_BLOCK_CELLS", block_cells):
            views = build_views(n, degree, np.random.default_rng(seed))
            again = build_views(n, degree, np.random.default_rng(seed))
        assert views.shape == (n, degree)
        assert views.dtype == np.int32
        assert views.min() >= 0 and views.max() < n
        assert not (views == np.arange(n)[:, None]).any()  # no self
        ordered = np.sort(views, axis=1)
        assert (ordered[:, 1:] != ordered[:, :-1]).all()  # no duplicate
        np.testing.assert_array_equal(views, again)
        for bad in (0, n):
            with pytest.raises(ValueError):
                build_views(n, bad, np.random.default_rng(seed))

    @pytest.mark.parametrize("degree", [20, 150])  # redraw, shuffle
    def test_build_views_rows_are_uniform_subsets(self, degree: int) -> None:
        """Fixed seed, n = 200, fifty builds off one generator: how often
        each node is viewed and how often each unordered pair shares a
        view, against independent uniform ``degree``-subsets.  A count is
        a sum over rows of Bernoulli(p) draws, so ``(count - mean)^2 /
        variance`` averages one per cell when that holds.  The pair cells
        of one row move together, which spreads the statistic more than a
        chi-square's: over 40 seeds it stayed within 0.78..1.26.  The
        bound is 1.5; duplicates redrawn from the lower half of the ids
        read 3.1 on the nodes, a contiguous run of ids 558 on the pairs,
        one shuffle shared by a block's rows 126 on the nodes."""
        n, builds = 200, 50
        rng = np.random.default_rng(20071)
        viewed = np.zeros(n)
        together = np.zeros((n, n))
        for _ in range(builds):
            member = np.zeros((n, n))
            np.put_along_axis(member, build_views(n, degree, rng), 1.0, axis=1)
            viewed += member.sum(axis=0)
            together += member.T @ member
        pairs = together[np.triu_indices(n, k=1)]
        # A node can be in the n - 1 rows of the others, a pair in the
        # n - 2 rows that are neither's own.
        in_row = degree / (n - 1)
        both_in_row = in_row * (degree - 1) / (n - 2)
        for counts, rows, p in (
            (viewed, n - 1, in_row),
            (pairs, n - 2, both_in_row),
        ):
            draws = builds * rows
            spread = (counts - draws * p) ** 2 / (draws * p * (1.0 - p))
            assert float(spread.mean()) < 1.5


def replay(result) -> MetricsRecorder:
    """What ``summarize()`` reads, replayed from a finished megasim run
    into a recorder: every message multicast at 0, every delivery at
    ``slot * round_ms``, the packet/byte counters and the link table."""
    recorder = MetricsRecorder()
    msg_size = payload_packet_size(result.spec.payload_bytes)
    ctrl_size = control_packet_size()
    for message_id, outcome in enumerate(result.outcomes):
        recorder.on_multicast(message_id, outcome.origin, 0.0)
        delivered = np.flatnonzero(outcome.deliver_slot >= 0)
        slots = outcome.deliver_slot[delivered]
        for node, slot in zip(delivered.tolist(), slots.tolist()):
            recorder.on_app_deliver(node, message_id, slot * result.round_ms)
        for kind, count, size in (
            ("MSG", outcome.msg_sent, msg_size),
            ("IHAVE", outcome.ihave_sent, ctrl_size),
            ("IWANT", outcome.iwant_sent, ctrl_size),
        ):
            recorder.sent_packets[kind] += count
            recorder.sent_bytes[kind] += count * size
        for link, count in (outcome.link_counts or {}).items():
            recorder.link_payload_counts[link] += count
    return recorder


class TestResultAdapters:
    """summary_from_outcomes must agree with the recorder pipeline."""

    @pytest.mark.parametrize(
        "factory", [flat_factory(1.0), flat_factory(0.0), ttl_factory(2)],
        ids=["eager", "lazy", "ttl"],
    )
    def test_summary_matches_recorder_summarize(self, factory) -> None:
        spec = MegasimSpec(
            strategy_factory=factory,
            nodes=48,
            fanout=47,
            rounds=6,
            messages=3,
            seed=2,
            topology="uniform",
            track_links=True,
        )
        result = run_megasim(spec)
        direct = result.summary
        via_recorder = summarize(replay(result), expected_receivers=48)
        assert direct == via_recorder

    def test_top_link_share_nan_without_tracking(self) -> None:
        spec = MegasimSpec(
            strategy_factory=flat_factory(1.0),
            nodes=16,
            fanout=15,
            rounds=2,
            messages=1,
            seed=0,
            topology="uniform",
        )
        summary = run_megasim(spec).summary
        assert np.isnan(summary.top_link_share)

    def test_large_run_histogram_stats_match_exact_path(self) -> None:
        # Force the >4096-deliveries histogram branch and check it
        # against the expanded exact computation on the same data.
        from repro.megasim.adapter import _slot_latency_stats
        from repro.metrics.confidence import (
            mean_confidence_interval,
            percentile,
        )

        histogram = {1: 3000, 2: 1500, 3: 700, 5: 40}
        mean, ci, median, p95 = _slot_latency_stats(histogram, 50.0)
        expanded = sorted(
            slot * 50.0 for slot, count in histogram.items()
            for _ in range(count)
        )
        exact_mean, exact_ci = mean_confidence_interval(expanded)
        assert mean == pytest.approx(exact_mean)
        assert ci == pytest.approx(exact_ci)
        assert median == pytest.approx(percentile(expanded, 0.5))
        assert p95 == pytest.approx(percentile(expanded, 0.95))

    @settings(max_examples=200, deadline=None)
    @given(
        messages=st.lists(
            st.tuples(
                st.lists(st.integers(-1, 40), min_size=1, max_size=60),
                st.integers(0, 59),
            ),
            max_size=4,
        )
    )
    def test_slot_histogram_matches_np_unique(self, messages) -> None:
        outcomes = [
            SimpleNamespace(
                origin=origin % len(slots),
                deliver_slot=np.array(slots, dtype=np.int32),
            )
            for slots, origin in messages
        ]
        expected: "dict[int, int]" = {}
        for outcome in outcomes:  # the np.unique form it replaced
            delivered = outcome.deliver_slot >= 0
            delivered[outcome.origin] = False
            slots, counts = np.unique(
                outcome.deliver_slot[delivered], return_counts=True
            )
            for slot, count in zip(slots.tolist(), counts.tolist()):
                expected[slot] = expected.get(slot, 0) + count
        histogram = adapter_module._slot_histogram(outcomes)
        # Same entries, same insertion order, plain ints.
        assert list(histogram.items()) == list(expected.items())
        assert {type(v) for v in (*histogram, *histogram.values())} <= {int}

    def test_empty_outcomes(self) -> None:
        summary = summary_from_outcomes([], n=10, round_ms=50.0)
        assert summary.messages == 0
        assert summary.deliveries == 0


class TestFaultCompilation:
    """compile_faults: plans lowered to masks/key sets, replaying the
    event injectors' derived streams bit-for-bit."""

    def test_empty_plans_compile_to_none(self) -> None:
        from repro.failures.gray import GrayFailurePlan
        from repro.failures.injection import FailurePlan
        from repro.megasim.adapter import compile_faults

        assert compile_faults(24, 0) is None
        assert compile_faults(24, 0, failure=FailurePlan(fraction=0.0)) is None
        assert (
            compile_faults(
                24,
                0,
                gray=GrayFailurePlan(
                    lossy_link_fraction=1.0, link_loss_probability=0.0
                ),
            )
            is None
        )

    def test_crash_victims_replay_the_event_injector(self) -> None:
        from repro.experiments.scenarios import flat_factory as flat
        from repro.failures.injection import FailurePlan
        from repro.megasim.adapter import compile_faults
        from repro.runtime.cluster import Cluster

        plan = FailurePlan(fraction=0.25)
        model = ClientNetworkModel.uniform(24)
        from repro.failures.injection import FailureInjector

        cluster = Cluster(model, flat(1.0), seed=9)
        victims = FailureInjector(cluster).apply(plan)
        faults = compile_faults(24, 9, failure=plan)
        assert faults.failed_nodes() == sorted(victims)

    def test_dead_links_replay_the_gray_injector(self) -> None:
        from repro.experiments.scenarios import flat_factory as flat
        from repro.failures.gray import GrayFailureInjector, GrayFailurePlan
        from repro.megasim.adapter import compile_faults
        from repro.runtime.cluster import Cluster

        plan = GrayFailurePlan(
            lossy_link_fraction=0.2, link_loss_probability=1.0
        )
        model = ClientNetworkModel.uniform(16)
        cluster = Cluster(model, flat(1.0), seed=4)
        applied = GrayFailureInjector(cluster).apply(plan)
        faults = compile_faults(16, 4, gray=plan)
        keys = sorted(int(a) * 16 + int(b) for a, b in applied.lossy_links)
        assert faults.drop_keys.tolist() == keys
        # Exactly those links are dropped by the mask, nothing else.
        src = np.repeat(np.arange(16, dtype=np.int32), 16)
        dst = np.tile(np.arange(16, dtype=np.int32), 16)
        keep = faults.deliver_mask(src, dst, None)
        dropped = {
            (int(a), int(b)) for a, b in zip(src[~keep], dst[~keep])
        }
        assert dropped == set(applied.lossy_links)

    def test_fractional_links_refused_above_enumeration_limit(self) -> None:
        from repro.failures.gray import GrayFailurePlan
        from repro.megasim.adapter import (
            LINK_ENUMERATION_LIMIT,
            UnsupportedFaultError,
            compile_faults,
        )

        plan = GrayFailurePlan(
            lossy_link_fraction=0.5, link_loss_probability=1.0
        )
        with pytest.raises(UnsupportedFaultError, match="lossy_link_fraction"):
            compile_faults(LINK_ENUMERATION_LIMIT + 1, 0, gray=plan)
        # The uniform (fraction >= 1.0) form scales to any n: no
        # enumeration happens, only a probability.
        from repro.megasim.adapter import compile_faults as cf

        scaled = cf(
            LINK_ENUMERATION_LIMIT + 1,
            0,
            gray=GrayFailurePlan(
                lossy_link_fraction=1.0, link_loss_probability=0.05
            ),
        )
        assert scaled.loss_probability == 0.05
        assert scaled.lossy_keys is None

    def test_bernoulli_mask_draws_only_from_the_given_rng(self) -> None:
        from repro.failures.gray import GrayFailurePlan
        from repro.megasim.adapter import compile_faults

        faults = compile_faults(
            8,
            0,
            gray=GrayFailurePlan(
                lossy_link_fraction=1.0, link_loss_probability=0.5
            ),
        )
        assert faults.needs_rng
        src = np.repeat(np.arange(8, dtype=np.int32), 8)
        dst = np.tile(np.arange(8, dtype=np.int32), 8)
        a = faults.deliver_mask(src, dst, np.random.default_rng(1))
        b = faults.deliver_mask(src, dst, np.random.default_rng(1))
        c = faults.deliver_mask(src, dst, np.random.default_rng(2))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        with pytest.raises(ValueError, match="loss RNG"):
            faults.deliver_mask(src, dst, None)
