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

=====================  ===================  ===================  ===================  ===================  ===================  ===================  ===================  ===================  ===================
cell                   before burst path    burst path           shared fault draws   one fabric path      fixed-T queue only   one fault model      in-flight receipts   one transport        model rows
=====================  ===================  ===================  ===================  ===================  ===================  ===================  ===================  ===================  ===================
Flat 1.0               776,774 / 2,400      318,154 / 2,400      318,154 / 2,400      318,153 / 2,400      315,628 / 2,400      314,071 / 2,400      297,013 / 2,400      297,010 / 2,400      297,010 / 2,400
Radius, faults         871,175 / 1,920      600,350 / 1,920      600,344 / 1,920      441,214 / 1,920      435,533 / 1,920      434,149 / 1,920      417,599 / 1,920      417,596 / 1,920      347,567 / 1,920
=====================  ===================  ===================  ===================  ===================  ===================  ===================  ===================  ===================  ===================

With one fabric path, Flat 1.0's sends cost what they did; its one call
fewer is the fast-path predicate the fabric computed once per cluster.
Radius with faults loses the per-packet impaired path: 312.7 -> 229.8
calls per delivery.

With the request queue reduced to Fig. 3's fixed-``T`` schedule, each
firing stops calling the health filter and the retry-policy lookup, each
payload receipt clears its entry in one call instead of two, and each
node wires its scheduler once: 229.8 -> 226.8 calls per delivery for
Radius with faults, 132.6 -> 131.5 for Flat 1.0.

With one fault model (crash-stop silencing plus link loss) a connection
is a bare list of in-flight receipts: opening one no longer constructs a
record, 131.5 -> 130.9 calls per delivery for Flat 1.0 and
226.8 -> 226.1 for Radius with faults.

With a connection holding only its in-flight receipts (a delivered one
leaves at delivery, so a send no longer reaps) and each packet making
one pass through the send path -- the transport's burst loop, the
fabric's loop reserving the NIC, drawing loss and computing delivery
times without a NIC call -- 130.9 -> 123.8 calls per delivery for
Flat 1.0 and 226.1 -> 217.5 for Radius with faults.

With one transport, building the cluster's connection transport no
longer chains to a base class or derives a purge-policy RNG stream:
three calls fewer per cluster, per-delivery costs unchanged.

With strategies reading their node's row of the model file instead of a
monitor object, Radius with faults drops 24,660
``OracleLatencyMonitor.metric`` and 24,660 ``ClientNetworkModel.latency``
calls (one each per eager decision and per ``select_source`` key), 20,669
``RadiusStrategy.eager`` calls (its burst is one ``eager_many``
comprehension over the row, replacing the base class's per-peer loop
call for call) and 40 monitor constructions: 70,029 calls fewer,
217.5 -> 181.0 calls per delivery.  Flat 1.0 runs no changed code.
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
    "flat_1.0": (_flat_spec, 297_010, 2_400),
    "radius_faults": (_radius_faults_spec, 347_567, 1_920),
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
