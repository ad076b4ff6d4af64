"""The SimulationBackend seam: both kernels behind one interface."""

from __future__ import annotations

import pytest

from repro.backends import (
    BACKEND_NAMES,
    EventKernelBackend,
    SimulationBackend,
    VectorBackend,
    get_backend,
)
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.experiments.scenarios import flat_factory
from repro.experiments.workload import TrafficConfig
from repro.failures.churn import ChurnConfig
from repro.failures.gray import GrayFailurePlan
from repro.failures.injection import FailurePlan
from repro.gossip.config import GossipConfig
from repro.runtime.cluster import ClusterConfig
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


def test_get_backend_resolution() -> None:
    assert isinstance(get_backend("event"), EventKernelBackend)
    assert isinstance(get_backend("vector"), VectorBackend)
    with pytest.raises(ValueError, match="unknown backend"):
        get_backend("quantum")
    assert BACKEND_NAMES == ("event", "vector")


def test_both_backends_satisfy_the_protocol() -> None:
    assert isinstance(EventKernelBackend(), SimulationBackend)
    assert isinstance(VectorBackend(), SimulationBackend)


def test_event_backend_is_run_experiment() -> None:
    spec = tiny_spec()
    via_backend = EventKernelBackend().run(MODEL, spec)
    direct = run_experiment(MODEL, spec)
    assert via_backend.summary == direct.summary


def test_vector_backend_returns_experiment_result_schema() -> None:
    pytest.importorskip("numpy")
    result = VectorBackend().run(MODEL, tiny_spec())
    assert result.summary.messages == 3
    assert result.summary.delivery_ratio == pytest.approx(1.0)
    assert result.alive == list(range(24))
    assert result.failed == []
    assert result.mean_receipt_round > 0
    # The recorder replay carries the same totals as the summary.
    assert (
        result.recorder.sent_packets["MSG"]
        == result.summary.payload_transmissions
    )


def test_vector_backend_is_worker_count_invariant() -> None:
    # The dense model wrapper goes through the same batch-descriptor
    # path as the synthetic topologies: shipped once per pool worker.
    pytest.importorskip("numpy")
    spec = tiny_spec(
        strategy_factory=flat_factory(0.5),
        cluster=ClusterConfig(gossip=GossipConfig(fanout=5, rounds=6)),
        gray=GrayFailurePlan(lossy_link_fraction=0.5, link_loss_probability=0.3),
    )
    serial = VectorBackend(workers=1).run(MODEL, spec)
    pooled = VectorBackend(workers=2).run(MODEL, spec)
    assert pooled.summary == serial.summary
    assert pooled.recovery == serial.recovery
    assert pooled.mean_receipt_round == serial.mean_receipt_round
    assert pooled.recorder.link_payload_counts == serial.recorder.link_payload_counts


def test_vector_backend_rejects_churn_by_name() -> None:
    spec = tiny_spec(churn=ChurnConfig(interval_ms=1_000.0))
    with pytest.raises(ValueError, match="does not support spec.churn"):
        VectorBackend().check_spec(spec)


def test_vector_backend_rejects_node_classes_by_name() -> None:
    spec = tiny_spec(node_classes=lambda model: {"best": [0]})
    with pytest.raises(ValueError, match="does not support spec.node_classes"):
        VectorBackend().check_spec(spec)


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
        VectorBackend().check_spec(spec)


def test_vector_backend_accepts_crash_failures() -> None:
    pytest.importorskip("numpy")
    result = VectorBackend().run(
        MODEL, tiny_spec(failure=FailurePlan(fraction=0.25))
    )
    assert len(result.failed) == 6
    assert sorted(result.alive + result.failed) == list(range(24))
    assert result.summary.expected_receivers == 18
    # Crashed nodes are pure sinks: full coverage of the alive population.
    assert result.summary.delivery_ratio == pytest.approx(1.0)


def test_vector_backend_accepts_lossy_links() -> None:
    pytest.importorskip("numpy")
    result = VectorBackend().run(
        MODEL,
        tiny_spec(
            gray=GrayFailurePlan(
                lossy_link_fraction=1.0, link_loss_probability=0.2
            )
        ),
    )
    assert result.failed == []
    # Pull recovery restores full coverage at this scale; the retry
    # counter proves the recovery machinery actually exercised.
    assert result.summary.delivery_ratio == pytest.approx(1.0)
    assert result.recovery["retries"] >= 0


def test_vector_backend_uses_gossip_and_traffic_parameters() -> None:
    pytest.importorskip("numpy")
    capped = VectorBackend().run(
        MODEL,
        tiny_spec(cluster=ClusterConfig(gossip=GossipConfig(fanout=23, rounds=1))),
    )
    free = VectorBackend().run(MODEL, tiny_spec())
    assert (
        capped.summary.payload_transmissions
        < free.summary.payload_transmissions
    )


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
    from repro.backends import DENSE_MODEL_LIMIT
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
    """The issue's acceptance bar: ``repro run --backend vector`` takes
    a loss spec end to end at 100k nodes."""
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
