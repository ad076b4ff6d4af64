"""Strategy identities: configurations that are the same ``Eager?``.

The paper defines every strategy as a predicate ``Eager?(i, d, r, p)``
(section 4), and some configurations are the same predicate, so their
runs must be byte-identical on either kernel, healthy or faulty:

- every transmission eager: TTL(u > rounds) = Flat(1.0) = Ranked(every
  node best) = Radius(rho beyond every metric) = Noisy(that Radius, 0);
- every transmission lazy: TTL(0) = Flat(0.0).

The eager group holds although Radius's request schedule differs from
Flat's (first request after T0, nearest source): nothing is ever
advertised, so no request is ever scheduled.  Flat draws nothing at
p in {0, 1}, and Noisy at o = 0 passes every decision through.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

import pytest

from repro.experiments.golden import canonical_model, canonical_spec, trace_digest
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import (
    ScenarioParams,
    flat_factory,
    noisy_factory,
    radius_factory,
    ranked_factory,
    ttl_factory,
)
from repro.failures.gray import GrayFailurePlan
from repro.failures.injection import FailurePlan
from repro.runtime.node import StrategyFactory

#: A radius beyond every metric of both environments below: canonical
#: latencies are about 20 ms, and the megasim plane's diagonal is 141.
BEYOND_EVERY_METRIC = ScenarioParams(radius_ms=1e6)
EVERY_NODE_BEST = ScenarioParams(ranked_fraction=1.0)


def all_eager(rounds: int, event_only: bool) -> Dict[str, StrategyFactory]:
    group = {
        "flat_1": flat_factory(1.0),
        "ttl_beyond_rounds": ttl_factory(rounds + 1),
        "ranked_all_best": ranked_factory(EVERY_NODE_BEST),
        "radius_beyond": radius_factory(BEYOND_EVERY_METRIC),
    }
    if event_only:
        group["noisy_radius_0"] = noisy_factory(
            radius_factory(BEYOND_EVERY_METRIC), 0.0
        )
    return group


def all_lazy() -> Dict[str, StrategyFactory]:
    return {"flat_0": flat_factory(0.0), "ttl_0": ttl_factory(0)}


def assert_all_equal(outputs: Dict[str, object]) -> None:
    names = list(outputs)
    for name in names[1:]:
        assert outputs[name] == outputs[names[0]], f"{name} != {names[0]}"


# -- event kernel: the golden digest of the canonical 16-node run ----------

EVENT_FAULTS = {
    "healthy": (None, None),
    "faults": (
        FailurePlan(fraction=0.125),
        GrayFailurePlan(lossy_link_fraction=1.0, link_loss_probability=0.1),
    ),
}


@pytest.mark.parametrize("group", ["eager", "lazy"])
@pytest.mark.parametrize("faults", sorted(EVENT_FAULTS))
def test_event_kernel_identities(group: str, faults: str) -> None:
    failure, gray = EVENT_FAULTS[faults]
    base = replace(canonical_spec("flat"), failure=failure, gray=gray)
    factories = (
        all_eager(base.cluster.gossip.rounds, event_only=True)
        if group == "eager"
        else all_lazy()
    )
    model = canonical_model()
    digests = {
        name: trace_digest(
            run_experiment(model, replace(base, strategy_factory=factory))
        )
        for name, factory in factories.items()
    }
    assert_all_equal(digests)
    # The groups are not vacuous: every run delivered to the live nodes.
    first = next(iter(digests.values()))
    assert first["deliveries"] > 0


# -- slot kernel: the outcome arrays of a 2,000-node view-mode run ---------

MEGA_FAULTS = {
    "healthy": (None, None),
    "faults": (
        FailurePlan(fraction=0.1),
        GrayFailurePlan(lossy_link_fraction=1.0, link_loss_probability=0.05),
    ),
}


def outcome_columns(result) -> List[bytes]:
    """Per message: the counters and every per-node array."""
    import numpy as np

    return [
        f"{o.origin}|{o.msg_sent}|{o.ihave_sent}|{o.iwant_sent}|"
        f"{o.slots_elapsed}|{o.retries}".encode()
        + b"".join(
            np.ascontiguousarray(array).tobytes()
            for array in (
                o.deliver_slot, o.carried_round, o.payload_sent,
                o.payload_received,
            )
        )
        for o in result.outcomes
    ]


@pytest.mark.parametrize("group", ["eager", "lazy"])
@pytest.mark.parametrize("faults", sorted(MEGA_FAULTS))
def test_slot_kernel_identities(group: str, faults: str) -> None:
    pytest.importorskip("numpy")
    from repro.megasim.runner import MegasimSpec, run_megasim

    failure, gray = MEGA_FAULTS[faults]
    base = MegasimSpec(
        strategy_factory=flat_factory(1.0),
        nodes=2_000,
        view_degree=30,
        messages=2,
        seed=5,
        failure=failure,
        gray=gray,
    )
    factories = (
        all_eager(base.effective_rounds, event_only=False)
        if group == "eager"
        else all_lazy()
    )
    outputs = {
        name: outcome_columns(
            run_megasim(replace(base, strategy_factory=factory))
        )
        for name, factory in factories.items()
    }
    assert_all_equal(outputs)
