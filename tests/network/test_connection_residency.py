"""A connection holds exactly its in-flight packets.

A receipt leaves its connection's list when its packet arrives: when it
is delivered, or dropped on arrival because an end was silenced.  After
a whole QUICK-scale run, every receipt still held is therefore pending,
and there are no more of them than queued events.  Both cells run with
the cluster kept alive past ``run_experiment`` so its transport can be
inspected; the faulty cell makes crashed nodes' peers keep sending into
silence.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.experiments import figures, runner
from repro.experiments.scenarios import flat_factory, radius_factory
from repro.failures.gray import GrayFailurePlan
from repro.failures.injection import FailurePlan
from repro.runtime.cluster import Cluster

SEED = 1001

SPECS = {
    "flat_1.0": lambda: figures.QUICK.spec(flat_factory(1.0), seed=SEED),
    "radius_faults": lambda: figures.QUICK.spec(
        radius_factory(),
        seed=SEED,
        failure=FailurePlan(fraction=0.2),
        gray=GrayFailurePlan(lossy_link_fraction=1.0, link_loss_probability=0.05),
    ),
}


@pytest.mark.parametrize("cell", sorted(SPECS))
def test_no_delivered_packet_stays_in_a_connection(cell, monkeypatch) -> None:
    kept: List[Cluster] = []

    class KeptCluster(Cluster):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            kept.append(self)

    monkeypatch.setattr(runner, "Cluster", KeptCluster)
    result = runner.run_experiment(figures.build_model(figures.QUICK), SPECS[cell]())
    (cluster,) = kept
    fabric = cluster.fabric
    held = [
        receipt
        for receipts in cluster.transport._connections.values()
        for receipt in receipts
    ]
    for receipt in held:
        packet = receipt.packet
        silenced = fabric.is_silenced(packet.src) or fabric.is_silenced(packet.dst)
        assert receipt.pending or (receipt.fired and silenced), packet
    assert len(held) <= cluster.sim.pending_events
    if cell == "radius_faults":
        # The faulty cell does drop packets on arrival at silenced nodes.
        assert result.recorder.dropped_packets["receiver-silenced"] > 0
