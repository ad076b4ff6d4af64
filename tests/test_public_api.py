"""Public API surface checks.

Guards the promises the README makes: the top-level convenience imports
exist, every ``__all__`` name resolves, and every public module carries
a docstring (the documentation bar for this reproduction).
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.topology",
    "repro.network",
    "repro.membership",
    "repro.gossip",
    "repro.scheduler",
    "repro.strategies",
    "repro.failures",
    "repro.metrics",
    "repro.runtime",
    "repro.baselines",
    "repro.app",
    "repro.experiments",
]


def iter_all_modules():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        yield package
        if hasattr(package, "__path__"):
            for info in pkgutil.iter_modules(package.__path__):
                if info.name == "__main__":
                    continue  # importing it would execute the CLI
                yield importlib.import_module(f"{package_name}.{info.name}")


def test_version_is_exposed():
    assert repro.__version__ == "1.0.0"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_names_resolve(package_name):
    package = importlib.import_module(package_name)
    for name in getattr(package, "__all__", []):
        assert hasattr(package, name), f"{package_name}.{name} missing"


def test_every_module_has_a_docstring():
    undocumented = [
        module.__name__
        for module in iter_all_modules()
        if not (module.__doc__ or "").strip()
    ]
    assert undocumented == []


def test_every_public_class_and_function_is_documented():
    import inspect

    missing = []
    for module in iter_all_modules():
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-export; documented at its home
            if not (obj.__doc__ or "").strip():
                missing.append(f"{module.__name__}.{name}")
    assert missing == []


def test_readme_quickstart_workflow():
    """The exact flow the README advertises, end to end (tiny sizes)."""
    from repro import (
        ClientNetworkModel,
        ClusterConfig,
        ExperimentSpec,
        GossipConfig,
        InetParameters,
        generate_inet,
        run_experiment,
        ttl_factory,
    )
    from repro.experiments.workload import TrafficConfig

    topology = generate_inet(
        InetParameters(router_count=200, client_count=12, transit_count=16),
        seed=7,
    )
    model = ClientNetworkModel.from_inet(topology)
    spec = ExperimentSpec(
        strategy_factory=ttl_factory(2),
        cluster=ClusterConfig(gossip=GossipConfig.for_population(model.size)),
        traffic=TrafficConfig(messages=6, mean_interval_ms=100.0),
        warmup_ms=1_500.0,
    )
    result = run_experiment(model, spec)
    assert result.summary.delivery_ratio > 0.95
    assert result.summary.mean_latency_ms > 0
