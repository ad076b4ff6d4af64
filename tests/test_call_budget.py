"""Exact cost counters: Python calls into ``repro``, per function, per cell.

Host time on a shared box wanders 1.15-1.5x between runs; the number of
Python-level calls a simulation makes does not.  Two QUICK-scale event
kernel cells (seed 1001) are counted by the call ledger,
:mod:`tests.calls`: every ``call`` event whose code lives under
``src/repro``, keyed ``module:qualname``.  Comprehension frames are
skipped because CPython 3.12 inlines them (PEP 709), so the counts are
the same on 3.10 through 3.13.

``tests/golden/calls.json`` pins each cell's deliveries and every
function's count, exactly.  Any move fails and prints the functions that
moved, largest first, with the cell's total.  A rise means the change made
the kernel do more Python work per delivery; a fall is kept by rewriting
the ledger, so the next change is measured against it::

    PYTHONPATH=src python -m pytest tests/test_call_budget.py --update-golden
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.experiments import figures, runner
from repro.experiments.scenarios import flat_factory, radius_factory
from repro.failures.gray import GrayFailurePlan
from repro.failures.injection import FailurePlan
from tests import calls

LEDGER = Path(__file__).with_name("golden") / "calls.json"

#: cell -> the keyword arguments of its QUICK spec
CELLS = {
    "flat_1.0": {"factory": flat_factory(1.0)},
    "radius_faults": {
        "factory": radius_factory(),
        "failure": FailurePlan(fraction=0.2),
        "gray": GrayFailurePlan(lossy_link_fraction=1.0, link_loss_probability=0.05),
    },
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_calls_per_delivery_match_the_pin(cell: str, update_golden: bool) -> None:
    spec = figures.QUICK.spec(seed=1001, **CELLS[cell])
    model = figures.build_model(figures.QUICK)
    with calls.counting(calls.index()) as counts:
        result = runner.run_experiment(model, spec)
    delivered = result.recorder.delivery_count
    assert not [name for name in counts if name[0] == "?"], f"{cell}: unnamed code"
    ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    if update_golden:
        ledger[cell] = {"calls": counts, "deliveries": delivered}
        LEDGER.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
        return
    assert delivered == ledger[cell]["deliveries"], f"{cell}: {delivered} deliveries"
    pinned = Counter(ledger[cell]["calls"])
    moved = {name: counts[name] - pinned[name] for name in {*counts, *pinned}}
    diff = sorted((-abs(delta), name, delta) for name, delta in moved.items() if delta)
    total, was = sum(counts.values()), sum(pinned.values())
    trend = "rose" if total > was else "fell" if total < was else "held"
    assert not diff, "\n".join(
        [f"{cell}: {trend} to {total:,} repro calls from {was:,} "
         f"({total / delivered:.1f} vs {was / delivered:.1f} per delivery); more "
         "work is a regression, less is kept with --update-golden.  Moved:"]
        + [f"  {delta:+,}  {name}" for _, name, delta in diff]
    )
