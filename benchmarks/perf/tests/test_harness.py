"""Self-test of the benchmark harness at ``--smoke`` sizing.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf/tests -q``
(not part of the tier-1 suite: ``testpaths`` is ``tests``).
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.perf import compare, harness, probes
from benchmarks.perf.tracing import (
    Probe,
    ProbeError,
    Tracer,
    _resolve_owner,
    layer_of,
)
from benchmarks.perf.workloads import SMOKE, WORKLOADS

CONTRACT = harness.load_contract()
END_TO_END = {m["name"] for m in CONTRACT["end_to_end"]} | {"undelivered_share"}
PER_LAYER = {m["name"] for m in CONTRACT["per_layer"]}
ALL_PROBES = probes.EVENT_PROBES + probes.MEGA_PROBES


def _originals():
    found = {}
    for probe in ALL_PROBES:
        owner, attr = _resolve_owner(probe)
        assert owner is not None and attr in vars(owner), probe.target
        found[probe.target] = vars(owner)[attr]
    return found


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """Every workload measured untraced and traced, once for the module."""
    out = tmp_path_factory.mktemp("spans")
    before = _originals()
    measured = {
        (name, trace): harness.measure(
            workload, seed=1, seconds=0.0, trace=trace, sizing=SMOKE,
            trace_path=out / f"{name}.spans.json" if trace else None,
        )
        for name, workload in WORKLOADS.items()
        for trace in (False, True)
    }
    return measured, before, out


def test_contract_names_the_six_workloads():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert "setup_s" in END_TO_END


def test_every_workload_passes_its_checks(records):
    measured, _, _ = records
    for key, record in measured.items():
        assert record["failures"] == [], key
        assert record["failed"] == 0 and record["attempted"] >= 1, key


def test_end_to_end_names_present_for_every_workload(records):
    measured, _, _ = records
    for name in WORKLOADS:
        record = measured[name, False]
        assert END_TO_END <= set(record["samples"]), name
        assert record["repetitions"] >= harness.MIN_REPETITIONS
        assert len(record["samples"]["wall_s"]) == record["repetitions"]
        values = harness.metric_values(record, CONTRACT)
        assert set(values) == END_TO_END - {"undelivered_share"}
        assert all(v["value"] > 0 for v in values.values()), name


def test_per_layer_names_present_for_every_workload(records):
    measured, _, _ = records
    produced = set()
    for name in WORKLOADS:
        record = measured[name, True]
        layers = set(record["layers"])
        assert layers <= PER_LAYER, layers - PER_LAYER
        assert {"trace.spans", "trace.overhead_ratio"} <= layers
        produced |= layers
        assert set(harness.metric_values(record, CONTRACT)) == PER_LAYER
    assert produced == PER_LAYER


def test_traced_and_untraced_simulate_the_same(records):
    measured, _, _ = records
    for name in WORKLOADS:
        assert (
            measured[name, True]["sim_digest"]
            == measured[name, False]["sim_digest"]
        )


def test_layer_contrasts_by_count(records):
    measured, _, _ = records
    layers = {name: measured[name, True]["layers"] for name in WORKLOADS}
    assert layers["event_eager"]["scheduler.iwant_sent"] == 0
    assert layers["event_radius_faults"]["scheduler.iwant_sent"] > 0
    for name in ("event_eager", "event_radius_faults", "fig4_sweep_pool"):
        assert layers[name]["network.fabric.fast_path_share"] == 0.0
    assert layers["mega_eager"]["megasim.adapter.deliver_mask_calls"] == 0
    assert layers["mega_eager"]["megasim.rounds.retries"] == 0
    assert layers["mega_radius_faults"]["megasim.adapter.deliver_mask_calls"] > 0
    assert layers["mega_radius_faults"]["megasim.rounds.retries"] > 0
    assert "megasim.arena.pack_s" in layers["mega_pool"]
    assert "megasim.arena.pack_s" not in layers["mega_eager"]
    assert "experiments.parallel.efficiency" in layers["fig4_sweep_pool"]


def test_wrappers_fully_removed_after_traced_runs(records):
    _, before, _ = records
    assert _originals() == before
    for target, original in before.items():
        function = getattr(original, "__func__", original)
        assert not getattr(function, "_perf_span", False), target


def test_trace_file_holds_aggregates_and_first_requests(records):
    _, _, out = records
    trace = json.loads((out / "event_eager.spans.json").read_text())
    passes = {p["repetition"]: p for p in trace["passes"]}
    assert set(passes) == {"setup", "traced"}
    layers = {a["layer"] for a in passes["traced"]["aggregates"]}
    assert {"sim", "network.fabric", "gossip", "scheduler", "metrics"} <= layers
    requests = {span["request"] for span in passes["traced"]["first_requests"]}
    assert requests == {1, 2}
    pooled = json.loads((out / "mega_pool.spans.json").read_text())
    assert [p["repetition"] for p in pooled["passes"]] == [
        "setup", "traced", "serial"
    ]


def test_missing_public_probe_fails_with_its_dotted_name():
    tracer = Tracer("test")
    with pytest.raises(ProbeError, match="repro.sim.engine:Simulator.no_such"):
        tracer.install(
            [
                Probe("repro.sim.engine:Simulator.run"),
                Probe("repro.sim.engine:Simulator.no_such"),
            ]
        )
    # The probe installed before the failure was rolled back.
    from repro.sim.engine import Simulator

    assert not getattr(Simulator.run, "_perf_span", False)


def test_missing_private_probe_yields_null():
    tracer = Tracer("test")
    tracer.install([Probe("repro.megasim.rounds:_no_such_phase")])
    tracer.remove()
    assert tracer.missing == ["repro.megasim.rounds:_no_such_phase"]
    assert probes._private_total(tracer, "_no_such_phase") is None
    assert probes._private_total(tracer, "_process_arrivals") == 0.0


def test_self_time_is_duration_minus_children():
    tracer = Tracer("test")

    def child():
        return sum(range(2000))

    traced_child = tracer.wrap(child)

    def parent():
        return traced_child() + traced_child()

    tracer.wrap(parent)()
    layer = layer_of(__name__)
    (p_calls, p_total, p_self) = tracer.stats[layer, parent.__qualname__]
    (c_calls, c_total, _) = tracer.stats[layer, child.__qualname__]
    assert (p_calls, c_calls) == (1, 2)
    assert p_self == pytest.approx(p_total - c_total)
    assert tracer.self_s() == pytest.approx(p_total)


@pytest.mark.parametrize(
    "base, new, better, bound, expected",
    [
        ([1.0, 1.01, 0.99], [1.02, 1.03, 1.01], "lower", 0.10, "same"),
        ([1.0, 1.01, 0.99], [1.3, 1.31, 1.29], "lower", 0.10, "worse"),
        ([1.0, 1.01, 0.99], [0.7, 0.71, 0.69], "lower", 0.10, "better"),
        ([100.0, 101.0, 99.0], [80.0, 81.0, 79.0], "higher", 0.10, "worse"),
        ([100.0, 101.0, 99.0], [130.0, 131.0, 129.0], "higher", 0.10, "better"),
        # Own spread wider than the bound and the samples overlap.
        ([1.0, 1.4, 0.8, 1.2], [1.1, 1.5, 0.9, 1.3], "lower", 0.10, "unresolved"),
        # Same spread, but every new sample beats every base sample.
        ([1.0, 1.4, 0.8, 1.2], [0.5, 0.7, 0.4, 0.6], "lower", 0.10, "better"),
        # Exact metrics: bound 0, any move counts.
        ([0.0], [0.0], "lower", 0.0, "same"),
        ([0.0], [1e-6], "lower", 0.0, "worse"),
        ([0.002], [0.001], "lower", 0.0, "better"),
    ],
)
def test_compare_verdicts(base, new, better, bound, expected):
    assert compare.verdict(base, new, better, bound) == expected


def _document(wall, undelivered=0.0, digest="d"):
    samples = {m["name"]: [1.0] for m in CONTRACT["end_to_end"]}
    samples.update(wall_s=wall, undelivered_share=[undelivered])
    return {
        "records": [
            {
                "workload": "event_eager", "traced": False,
                "samples": samples, "sim_digest": digest,
            }
        ]
    }


def test_compare_exit_code_and_digest_notice(tmp_path):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(_document([1.0, 1.01, 0.99])))
    cases = {
        "same": (_document([1.0, 1.02, 0.98]), 0, False),
        "slower": (_document([1.5, 1.51, 1.49]), 1, False),
        "lossier": (_document([1.0, 1.01, 0.99], undelivered=0.01), 1, False),
        "changed": (_document([1.0, 1.01, 0.99], digest="e"), 0, True),
    }
    for name, (document, code, notice) in cases.items():
        new = tmp_path / f"{name}.json"
        new.write_text(json.dumps(document))
        out = io.StringIO()
        assert compare.compare(str(base), str(new), CONTRACT, out) == code, name
        assert ("simulated results changed" in out.getvalue()) == notice, name


def test_driver_entry_prints_the_contract_line():
    run_py = Path(harness.__file__).with_name("run.py")
    for trace, names in ((0, END_TO_END - {"undelivered_share"}), (1, PER_LAYER)):
        done = subprocess.run(
            [
                sys.executable, str(run_py), "--workload", "mega_radius_faults",
                "--seed", "5", "--seconds", "0", "--trace", str(trace), "--smoke",
            ],
            capture_output=True, text=True, check=True,
        )
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert set(line["metrics"]) == names
        assert all(set(v) == {"value", "unit"} for v in line["metrics"].values())


def _session_members(session: int) -> list:
    """(pid, state) of every process -- zombies too -- in ``session``."""
    members = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue  # ended while we looked
            if int(fields[3]) == session:
                members.append((int(entry.name), fields[0]))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs procfs")
def test_driver_entry_leaves_no_process_behind():
    """``mega_pool``'s arena starts multiprocessing's resource tracker,
    which would outlive the run: the entry point stops and reaps it."""
    run_py = Path(harness.__file__).with_name("run.py")
    child = subprocess.Popen(
        [
            sys.executable, str(run_py), "--workload", "mega_pool",
            "--seed", "2", "--seconds", "0", "--trace", "0", "--smoke",
        ],
        stdout=subprocess.DEVNULL, start_new_session=True,
    )
    assert child.wait() == 0
    assert _session_members(child.pid) == []
