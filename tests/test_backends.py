"""The two kernels behind ``repro run --backend``: the event kernel runs
an ``ExperimentSpec`` as it is, and ``megasim_spec`` is the one
translation of that spec for the slot kernel."""

from __future__ import annotations

import dataclasses

import pytest

from repro.backends import DENSE_MODEL_LIMIT, megasim_spec
from repro.experiments.figures import QUICK, Scale, build_model
from repro.experiments.reporting import format_table
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.experiments.scenarios import flat_factory, radius_factory
from repro.experiments.workload import TrafficConfig
from repro.failures.gray import GrayFailurePlan
from repro.failures.injection import FailurePlan
from repro.gossip.config import GossipConfig
from repro.network.fabric import FabricConfig
from repro.runtime.cluster import ClusterConfig
from repro.scheduler.interfaces import SchedulerConfig
from repro.topology.routing import ClientNetworkModel

MODEL = ClientNetworkModel.uniform(24, latency_ms=50.0)


def tiny_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        strategy_factory=flat_factory(1.0),
        cluster=ClusterConfig(gossip=GossipConfig(fanout=23, rounds=6)),
        traffic=TrafficConfig(messages=3, mean_interval_ms=200.0),
        warmup_ms=500.0,
        drain_ms=500.0,
        seed=3,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def run_vector(spec: ExperimentSpec, workers: int = 1):
    """``spec`` on the slot kernel over ``MODEL``, as ``repro run
    --backend vector`` runs the dense tier (links tracked)."""
    pytest.importorskip("numpy")
    from repro.megasim.adapter import DenseTopology
    from repro.megasim.runner import run_megasim

    return run_megasim(
        megasim_spec(spec, MODEL.size, track_links=True),
        workers=workers,
        topology=DenseTopology(MODEL),
    )


@pytest.mark.parametrize(
    "clients", [40, DENSE_MODEL_LIMIT + 1], ids=["dense", "synthetic"]
)
def test_megasim_spec_maps_every_field(clients: int) -> None:
    """Every field the slot kernel reads comes from the experiment spec
    (fanout and round cap from ``GossipConfig.for_population``), and
    the two slot-kernel knobs pass through -- on both tiers alike."""
    pytest.importorskip("numpy")
    from repro.megasim.runner import MegasimSpec

    scale = Scale("t", clients=clients, routers=400, messages=7,
                  warmup_ms=1_000.0, seed=11)
    gossip = dataclasses.replace(
        GossipConfig.for_population(clients), payload_bytes=512
    )
    cluster = ClusterConfig(
        gossip=gossip, scheduler=SchedulerConfig(retry_period_ms=123.0)
    )
    factory = radius_factory()
    failure = FailurePlan(fraction=0.25)
    gray = GrayFailurePlan(lossy_link_fraction=1.0, link_loss_probability=0.1)
    spec = scale.spec(
        factory, seed=scale.seed, cluster=cluster, failure=failure, gray=gray
    )
    expected = MegasimSpec(
        strategy_factory=factory,
        nodes=clients,
        fanout=GossipConfig.for_population(clients).fanout,
        rounds=GossipConfig.for_population(clients).rounds,
        messages=7,
        seed=11,
        retry_period_ms=123.0,
        payload_bytes=512,
        view_degree=8,
        track_links=True,
        failure=failure,
        gray=gray,
    )
    assert megasim_spec(spec, clients, view_degree=8, track_links=True) == expected
    # Without knobs or overrides: the spec defaults on both sides.
    plain = megasim_spec(scale.spec(factory, seed=scale.seed), clients)
    assert plain == MegasimSpec(
        strategy_factory=factory,
        nodes=clients,
        fanout=GossipConfig.for_population(clients).fanout,
        rounds=GossipConfig.for_population(clients).rounds,
        messages=7,
        seed=11,
    )


def test_event_backend_is_run_experiment(capsys) -> None:
    """``repro run`` on the event backend prints ``run_experiment``'s
    summary row for the spec ``Scale.spec`` builds, byte for byte."""
    from repro.cli import main

    argv = ["--clients", "15", "--routers", "200", "--messages", "3",
            "--seed", "4"]
    assert main(["run", "eager", *argv]) == 0
    scale = Scale(QUICK.name, clients=15, routers=200, messages=3,
                  warmup_ms=QUICK.warmup_ms, seed=4)
    direct = run_experiment(
        build_model(scale), scale.spec(flat_factory(1.0), seed=4)
    )
    expected = format_table([dict(strategy="eager", **direct.summary.row())])
    assert capsys.readouterr().out == expected + "\n"


def test_vector_backend_returns_experiment_result_schema() -> None:
    result = run_vector(tiny_spec())
    summary = result.summary
    assert summary.messages == 3
    assert summary.expected_receivers == 24
    assert summary.delivery_ratio == pytest.approx(1.0)
    assert result.failed == []
    assert result.structure is not None
    assert all(outcome.receipt_round_histogram() for outcome in result.outcomes)
    # The summary's payload total is the outcomes' own counter.
    assert summary.payload_transmissions == sum(
        outcome.msg_sent for outcome in result.outcomes
    )


def test_vector_backend_is_worker_count_invariant() -> None:
    # The dense model wrapper goes through the same batch-descriptor
    # path as the synthetic topologies: shipped once per pool worker.
    np = pytest.importorskip("numpy")
    spec = tiny_spec(
        strategy_factory=flat_factory(0.5),
        cluster=ClusterConfig(gossip=GossipConfig(fanout=5, rounds=6)),
        gray=GrayFailurePlan(lossy_link_fraction=0.5, link_loss_probability=0.3),
    )
    serial = run_vector(spec, workers=1)
    pooled = run_vector(spec, workers=2)
    assert pooled.summary == serial.summary
    assert pooled.retries == serial.retries
    assert pooled.structure == serial.structure
    for ours, theirs in zip(pooled.outcomes, serial.outcomes, strict=True):
        assert np.array_equal(ours.link_keys, theirs.link_keys)
        assert np.array_equal(ours.link_sends, theirs.link_sends)
        assert np.array_equal(ours.deliver_slot, theirs.deliver_slot)


@pytest.mark.parametrize(
    "field, cluster",
    [
        (
            "cluster.fabric.loss_probability",
            ClusterConfig(fabric=FabricConfig(loss_probability=0.1)),
        ),
        ("cluster.fabric.jitter_ms", ClusterConfig(fabric=FabricConfig(jitter_ms=5.0))),
        (
            "cluster.scheduler.ihave_batch_window_ms",
            ClusterConfig(scheduler=SchedulerConfig(ihave_batch_window_ms=30.0)),
        ),
    ],
)
def test_vector_backend_rejects_event_only_settings_by_name(field, cluster) -> None:
    """Settings only the event kernel models are refused, not dropped."""
    spec = tiny_spec(cluster=cluster)
    with pytest.raises(ValueError, match=f"does not support spec.{field}; "):
        megasim_spec(spec, MODEL.size)


def test_vector_backend_rejects_node_classes_by_name() -> None:
    spec = tiny_spec(node_classes=lambda model: {"best": [0]})
    with pytest.raises(ValueError, match="does not support spec.node_classes"):
        megasim_spec(spec, MODEL.size)


@pytest.mark.parametrize(
    "field, plan",
    [
        ("slow_fraction", GrayFailurePlan(slow_fraction=0.1)),
        ("flappy_fraction", GrayFailurePlan(flappy_fraction=0.1)),
        (
            "link_extra_latency_ms",
            GrayFailurePlan(lossy_link_fraction=0.1, link_extra_latency_ms=5.0),
        ),
        (
            "link_duplicate_probability",
            GrayFailurePlan(
                lossy_link_fraction=0.1, link_duplicate_probability=0.1
            ),
        ),
    ],
)
def test_vector_backend_rejects_gray_subfields_by_name(field, plan) -> None:
    pytest.importorskip("numpy")
    spec = tiny_spec(gray=plan)
    with pytest.raises(ValueError, match=f"does not support spec.gray.{field}"):
        megasim_spec(spec, MODEL.size)


def test_vector_backend_accepts_crash_failures() -> None:
    result = run_vector(tiny_spec(failure=FailurePlan(fraction=0.25)))
    assert len(result.failed) == 6
    assert result.failed == sorted(set(result.failed))
    assert set(result.failed) <= set(range(24))
    assert result.summary.expected_receivers == 18
    # Crashed nodes are pure sinks: full coverage of the alive population.
    assert result.summary.delivery_ratio == pytest.approx(1.0)


def test_vector_backend_accepts_lossy_links() -> None:
    result = run_vector(
        tiny_spec(
            gray=GrayFailurePlan(
                lossy_link_fraction=1.0, link_loss_probability=0.2
            )
        )
    )
    assert result.failed == []
    # Pull recovery restores full coverage at this scale; the retry
    # counter proves the recovery machinery actually exercised.
    assert result.summary.delivery_ratio == pytest.approx(1.0)
    assert result.retries >= 0


def test_vector_backend_uses_gossip_and_traffic_parameters() -> None:
    capped = run_vector(
        tiny_spec(cluster=ClusterConfig(gossip=GossipConfig(fanout=23, rounds=1)))
    )
    free = run_vector(tiny_spec())
    assert (
        capped.summary.payload_transmissions
        < free.summary.payload_transmissions
    )
    assert len(free.outcomes) == free.summary.messages == 3


def test_cli_backend_flag_routes_to_vector(capsys) -> None:
    pytest.importorskip("numpy")
    from repro.cli import main

    code = main(
        [
            "run", "flat", "--probability", "1.0", "--clients", "24",
            "--messages", "2", "--backend", "vector",
        ]
    )
    assert code == 0
    assert "flat" in capsys.readouterr().out


def test_cli_vector_routes_large_populations_synthetically(capsys) -> None:
    """Above DENSE_MODEL_LIMIT the vector backend skips the dense
    all-pairs model and runs the synthetic plane topology, loss spec
    included."""
    pytest.importorskip("numpy")
    from repro.cli import main

    code = main(
        [
            "run", "ttl", "--rounds", "2", "--backend", "vector",
            "--clients", str(DENSE_MODEL_LIMIT + 1), "--messages", "1",
            "--loss", "0.1",
        ]
    )
    assert code == 0
    assert "ttl" in capsys.readouterr().out


@pytest.mark.slow
def test_cli_vector_accepts_loss_at_100k(capsys) -> None:
    """``repro run --backend vector`` takes a loss spec end to end at
    100k nodes."""
    pytest.importorskip("numpy")
    from repro.cli import main

    code = main(
        [
            "run", "ttl", "--rounds", "2", "--backend", "vector",
            "--clients", "100000", "--messages", "1", "--loss", "0.05",
        ]
    )
    assert code == 0
    assert "ttl" in capsys.readouterr().out


def test_cli_vector_rejects_replications(capsys) -> None:
    from repro.cli import main

    code = main(
        [
            "run", "eager", "--clients", "16", "--messages", "1",
            "--backend", "vector", "--replications", "2",
        ]
    )
    assert code == 2
    assert "event backend" in capsys.readouterr().err
