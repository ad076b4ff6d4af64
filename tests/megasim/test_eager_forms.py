"""Hypothesis property: the scalar and column forms of ``Eager?`` agree.

Each oracle strategy is written twice: a scalar class the event kernel
asks one peer at a time (:mod:`repro.strategies`) and a column
evaluator the slot kernel asks per batch
(:mod:`repro.megasim.strategies`).  On a random non-uniform model both
must answer every ``(src, dst, rnd)`` alike, and the compiled request
schedule must be the scalar ``first_request_delay`` / ``select_source``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import pytest

np = pytest.importorskip("numpy")
pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.scenarios import (
    ScenarioParams,
    flat_factory,
    hybrid_factory,
    radius_factory,
    ranked_factory,
    ttl_factory,
)
from repro.megasim.adapter import DenseTopology
from repro.megasim.strategies import compile_strategy, ms_to_rounds
from repro.runtime.node import StrategyContext, StrategyFactory
from repro.scheduler.interfaces import TransmissionStrategy
from repro.sim.engine import Simulator
from repro.topology.routing import ClientNetworkModel
from repro.topology.simple import random_metric_topology

MAX_NODES = 40
MAX_ROUND = 8

positive = st.floats(min_value=1.0, max_value=150.0)
first_delay = st.floats(min_value=0.0, max_value=300.0)
fraction = st.floats(min_value=0.01, max_value=1.0)
rounds = st.integers(min_value=0, max_value=MAX_ROUND + 1)


@st.composite
def factories(draw: st.DrawFn) -> StrategyFactory:
    """Every oracle factory, with drawn parameters."""
    kind = draw(
        st.sampled_from(
            ["flat-0", "flat-1", "ttl", "radius", "radius-distance", "ranked",
             "hybrid"]
        )
    )
    if kind == "flat-0":
        return flat_factory(0.0)
    if kind == "flat-1":
        return flat_factory(1.0)
    if kind == "ttl":
        return ttl_factory(draw(rounds))
    if kind == "radius":
        params = ScenarioParams(
            radius_ms=draw(positive), radius_first_delay_ms=draw(first_delay)
        )
        return radius_factory(params, "latency")
    if kind == "radius-distance":
        # Positions span a 1000-unit square.
        params = ScenarioParams(
            radius_ms=draw(st.floats(min_value=1.0, max_value=1500.0)),
            radius_first_delay_ms=draw(first_delay),
        )
        return radius_factory(params, "distance")
    if kind == "ranked":
        return ranked_factory(ScenarioParams(ranked_fraction=draw(fraction)))
    return hybrid_factory(
        ScenarioParams(
            ranked_fraction=draw(fraction),
            hybrid_radius_ms=draw(positive),
            hybrid_eager_rounds=draw(rounds),
            radius_first_delay_ms=draw(first_delay),
        )
    )


@st.composite
def queries(draw: st.DrawFn, n: int) -> List[Tuple[int, int, int]]:
    """``(src, dst, rnd)`` triples with ``dst != src``."""
    result = []
    for _ in range(draw(st.integers(min_value=1, max_value=60))):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        dst = draw(st.integers(min_value=0, max_value=n - 2))
        result.append((src, dst + (dst >= src), draw(rounds)))
    return result


@st.composite
def cases(draw: st.DrawFn):
    n = draw(st.integers(min_value=2, max_value=MAX_NODES))
    model = random_metric_topology(n, seed=draw(st.integers(0, 2**16)))
    node = draw(st.integers(min_value=0, max_value=n - 1))
    sources = draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1,
                 max_size=n, unique=True)
    )
    return model, draw(factories()), draw(queries(n)), node, sources


def scalar_strategies(
    model: ClientNetworkModel, factory: StrategyFactory
) -> Dict[int, TransmissionStrategy]:
    """One scalar strategy per node, as the event kernel builds them."""
    return {
        node: factory(
            StrategyContext(
                sim=Simulator(seed=1),
                node=node,
                rng=random.Random(node),
                retry_period_ms=400.0,
                model=model,
            )
        )
        for node in range(model.size)
    }


@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_scalar_and_column_forms_agree(case) -> None:
    model, factory, triples, node, sources = case
    topology = DenseTopology(model)
    compiled = compile_strategy(factory, topology)
    scalar = scalar_strategies(model, factory)

    src, dst, rnd = (np.asarray(column, dtype=np.int32) for column in zip(*triples))
    mask = compiled.evaluator.eager_mask(src, dst, rnd, np.random.default_rng(0))
    expected = [scalar[s].eager(0, None, r, d) for s, d, r in triples]
    assert mask.tolist() == expected

    strategy = scalar[node]
    delay_ms = strategy.first_request_delay(0, sources[0])
    assert compiled.first_delay_rounds == ms_to_rounds(delay_ms, topology.round_ms)
    chosen = strategy.select_source(0, sources, set())
    if compiled.nearest_source:
        metric = topology.metric(
            compiled.metric_kind,
            np.full(len(sources), node, dtype=np.int32),
            np.asarray(sources, dtype=np.int32),
        )
        assert chosen == sources[int(np.argmin(metric))]  # first on ties
    else:
        assert chosen == sources[0]
