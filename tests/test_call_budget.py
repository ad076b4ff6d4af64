"""Exact cost counters: Python calls into ``repro`` per simulated delivery.

Host time on a shared box wanders 1.15-1.5x between runs; the number of
Python-level calls a simulation makes does not.  Two QUICK-scale event
kernel cells are counted with ``sys.setprofile``: every ``call`` event
whose code lives under ``src/repro``.  Comprehension frames are skipped
because CPython 3.12 inlines them (PEP 709), so the counts are the same
on 3.10 through 3.13.

The pins are a ratchet.  A count above its pin fails: the change made
the kernel do more Python work per delivery.  A count below its pin
fails too, asking for the pin to be lowered to the new count, so the
next change is measured against it.

Pinned counts (calls / deliveries, seed 1001):

=====================  ===================  ===================  ===================  ===================  ===================
cell                   before burst path    burst path           shared fault draws   one fabric path      fixed-T queue only
=====================  ===================  ===================  ===================  ===================  ===================
Flat 1.0               776,774 / 2,400      318,154 / 2,400      318,154 / 2,400      318,153 / 2,400      315,628 / 2,400
Radius, faults         871,175 / 1,920      600,350 / 1,920      600,344 / 1,920      441,214 / 1,920      435,533 / 1,920
=====================  ===================  ===================  ===================  ===================  ===================

With one fabric path, Flat 1.0's sends cost what they did; its one call
fewer is the fast-path predicate the fabric computed once per cluster.
Radius with faults loses the per-packet impaired path: 312.7 -> 229.8
calls per delivery.

With the request queue reduced to Fig. 3's fixed-``T`` schedule, each
firing stops calling the health filter and the retry-policy lookup, each
payload receipt clears its entry in one call instead of two, and each
node wires its scheduler once: 229.8 -> 226.8 calls per delivery for
Radius with faults, 132.6 -> 131.5 for Flat 1.0.
"""

from __future__ import annotations

import os
import sys
from types import FrameType
from typing import Any, Optional, Tuple

import pytest

import repro
from repro.experiments import figures, runner
from repro.experiments.scenarios import flat_factory, radius_factory
from repro.failures.gray import GrayFailurePlan
from repro.failures.injection import FailurePlan

SOURCE_ROOT = os.path.dirname(repro.__file__) + os.sep
INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})
SEED = 1001


def _flat_spec() -> runner.ExperimentSpec:
    return figures.QUICK.spec(flat_factory(1.0), seed=SEED)


def _radius_faults_spec() -> runner.ExperimentSpec:
    return figures.QUICK.spec(
        radius_factory(),
        seed=SEED,
        failure=FailurePlan(fraction=0.2),
        gray=GrayFailurePlan(lossy_link_fraction=1.0, link_loss_probability=0.05),
    )


#: cell -> (spec builder, pinned repro calls, deliveries)
PINS = {
    "flat_1.0": (_flat_spec, 315_628, 2_400),
    "radius_faults": (_radius_faults_spec, 435_533, 1_920),
}


def count_calls(spec: runner.ExperimentSpec) -> Tuple[int, int]:
    """(calls into ``repro`` code, deliveries) of one ``run_experiment``
    on the QUICK model, which is built before counting starts."""
    model = figures.build_model(figures.QUICK)
    calls = 0

    def profile(frame: FrameType, event: str, arg: Any) -> Optional[Any]:
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(SOURCE_ROOT) and code.co_name not in INLINED:
                calls += 1
        return None

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = runner.run_experiment(model, spec)
    finally:
        sys.setprofile(previous)
    return calls, result.recorder.delivery_count


@pytest.mark.parametrize("cell", sorted(PINS))
def test_calls_per_delivery_match_the_pin(cell: str) -> None:
    make_spec, pinned, deliveries = PINS[cell]
    calls, delivered = count_calls(make_spec())
    assert delivered == deliveries, f"{cell}: {delivered} deliveries"
    per_delivery = f"{calls / delivered:.1f} vs pinned {pinned / deliveries:.1f}"
    assert calls <= pinned, (
        f"{cell}: {calls:,} repro calls, pinned {pinned:,} ({per_delivery} per "
        "delivery): the change makes the kernel do more Python work"
    )
    assert calls >= pinned, (
        f"{cell}: {calls:,} repro calls, pinned {pinned:,} ({per_delivery} per "
        f"delivery): lower the pin in {__name__} to {calls:,}"
    )
