"""Measure one workload in this process: untraced or traced.

Untraced (`trace=False`): timed cold builds (``setup_s``), one untimed
warm-up call, then timed calls until ``seconds`` of measurement have
accumulated -- the end-to-end metrics.  Traced (`trace=True`): a traced
build, untraced reference calls, one traced call (plus one serial
traced pass on the pool workloads) -- the per-layer metrics and the
tracing overhead.  Either way the outputs are checked and the result is
one record dict (see README.md, "Result records").
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from benchmarks.perf import probes
from benchmarks.perf.tracing import Tracer
from benchmarks.perf.workloads import BENCH, Outcome, Sizing, Workload

#: The metric tables (names, units, directions, bounds) live in one
#: place: the contract file the benchmark driver reads.
BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Timed calls per untraced run, whatever ``seconds`` says.
MIN_REPETITIONS = 3
#: Untraced reference calls of a traced run (overhead_ratio's base).
REFERENCE_REPETITIONS = 2

#: Metrics in simulated time or simulated counts: they repeat exactly
#: for a seed, and one value per run is recorded.  The rest is host time.
SIMULATED = (
    "packets_per_delivery", "sim_latency_ms", "delivered_share",
    "undelivered_share",
)


def load_contract() -> Dict[str, Any]:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@contextmanager
def _traced(workload: Workload, repetition: str) -> Iterator[Tracer]:
    tracer = Tracer(repetition)
    tracer.install(
        probes.EVENT_PROBES if workload.kernel == "event" else probes.MEGA_PROBES
    )
    try:
        yield tracer
    finally:
        tracer.remove()


class _Run:
    """The calls of one run, with their samples and output checks."""

    def __init__(self, workload: Workload, spec: Any, keep_results: bool) -> None:
        self.workload = workload
        self.spec = spec
        #: Raw results are only needed for the per-layer counters; an
        #: untraced run drops them so ``peak_rss_mb`` is one call's peak.
        self.keep_results = keep_results
        self.samples: Dict[str, List[float]] = {
            "wall_s": [], "deliveries_per_s": [], "cpu_us_per_delivery": []
        }
        self.reference: Optional[Outcome] = None
        self.last: Optional[Outcome] = None
        self.attempted = 0
        self.failures: List[str] = []

    def call(self, env: Any, label: str, timed: bool, serial: bool = False) -> float:
        """One user-facing call; returns its wall time (0.0 if it raised).
        Every call must reproduce the first call's ``sim_digest``."""
        self.attempted += 1
        gc.collect()  # garbage of earlier calls is not this call's memory
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        try:
            raw = self.workload.call(self.spec, env, serial)
            wall = time.perf_counter() - start
            cpu = _cpu_seconds() - cpu0
            outcome = self.workload.reduce(raw)
            del raw
            if not self.keep_results:
                outcome.results = None
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{label}: raised")
            return 0.0
        if self.reference is None:
            self.reference = outcome
        elif outcome.sim_digest != self.reference.sim_digest:
            self.failures.append(f"{label}: sim_digest differs from first call")
        if timed:
            self.samples["wall_s"].append(wall)
            self.samples["deliveries_per_s"].append(outcome.deliveries / wall)
            self.samples["cpu_us_per_delivery"].append(
                1e6 * cpu / outcome.deliveries
            )
        self.last = outcome
        return wall


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    sizing: Sizing = BENCH,
    trace_path: Optional[Path] = None,
) -> Dict[str, Any]:
    """Run ``workload`` and return its result record."""
    run = _Run(workload, workload.make_spec(sizing, seed), keep_results=trace)
    record: Dict[str, Any] = {"workload": workload.name, "seed": seed, "traced": trace}
    if trace:
        record["layers"] = _measure_traced(run, trace_path)
    else:
        _measure_untraced(run, seconds)
    reference = run.reference
    if reference is not None:
        delivered = reference.deliveries / reference.attempted
        if delivered < workload.floor:
            run.failures.append(
                f"delivered share {delivered:.6f} below floor {workload.floor}"
            )
        run.samples.update(
            packets_per_delivery=[reference.packets / reference.deliveries],
            sim_latency_ms=[reference.sim_latency_ms],
            delivered_share=[delivered],
            undelivered_share=[1.0 - delivered],
        )
    record.update(
        repetitions=len(run.samples["wall_s"]),
        samples=run.samples,
        sim_digest=reference.sim_digest if reference else None,
        failures=run.failures,
        attempted=run.attempted,
        failed=min(run.attempted, len(run.failures)),
    )
    return record


def _measure_untraced(run: _Run, seconds: float) -> None:
    """Timed cold builds, a warm-up call, then timed calls for ``seconds``."""
    workload, spec = run.workload, run.spec
    env = workload.setup(spec)  # discarded: the first build pays imports
    builds: List[float] = []
    for _ in range(workload.setup_builds):
        start = time.perf_counter()
        env = workload.setup(spec)
        builds.append(time.perf_counter() - start)
    run.call(env, "warm-up", timed=False)
    measured = 0.0
    while not run.failures and (
        measured < seconds or len(run.samples["wall_s"]) < MIN_REPETITIONS
    ):
        measured += run.call(env, f"rep {len(run.samples['wall_s'])}", timed=True)
    run.samples["setup_s"] = builds
    run.samples["peak_rss_mb"] = [
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ]


def _measure_traced(
    run: _Run, trace_path: Optional[Path]
) -> Dict[str, Optional[float]]:
    """A traced build, untraced reference calls, one traced call and --
    on a pooled workload -- one serial traced pass; returns the layers."""
    workload = run.workload
    with _traced(workload, "setup") as setup:
        env = workload.setup(run.spec)
    run.call(env, "warm-up", timed=False)
    for index in range(REFERENCE_REPETITIONS):
        run.call(env, f"reference {index}", timed=True)
    with _traced(workload, "traced") as main:
        passes = [(main, run.call(env, "traced", timed=False))]
    pooled_outcome = run.last
    kernel = main
    if workload.pooled and not run.failures:
        # Worker-side spans die with the workers: one serial pass of the
        # same spec gives the kernel-phase breakdown, and must reproduce
        # the pooled digest.
        with _traced(workload, "serial") as kernel:
            passes.append(
                (kernel, run.call(env, "serial", timed=False, serial=True))
            )
    if trace_path is not None:
        sections = [tracer.to_json() for tracer in (setup, *(p[0] for p in passes))]
        trace_path.write_text(
            json.dumps({"workload": workload.name, "passes": sections})
        )
    if run.failures:
        return {}
    assert pooled_outcome is not None
    untraced_wall_s = statistics.median(run.samples["wall_s"])
    if workload.kernel == "event":
        layers = probes.event_layers(
            setup, main, kernel, pooled_outcome, workload.pooled, untraced_wall_s
        )
    else:
        layers = probes.mega_layers(
            setup, main, kernel, pooled_outcome, workload.pooled
        )
    layers["trace.spans"] = sum(tracer.spans for tracer, _ in passes)
    layers["trace.overhead_ratio"] = passes[0][1] / untraced_wall_s
    for tracer, wall in passes:
        if abs(tracer.self_s() - wall) > 0.10 * wall:
            run.failures.append(
                f"{tracer.repetition}: layer self times sum to "
                f"{tracer.self_s():.3f}s, wall {wall:.3f}s"
            )
    return layers


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    The pools join their own workers; what outlives them is
    multiprocessing's resource-tracker process, which the shared-memory
    arena of ``mega_pool`` starts and which otherwise exits on its own
    only some time after this process has.  Anything else still alive is
    killed.  Call it last: a later shared-memory call restarts the tracker.
    """
    gc.collect()  # pending arena finalizers still need the tracker
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)  # end of its "alive" pipe: the tracker exits
        tracker._fd = None
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    while True:  # the tracker, and any child multiprocessing does not know
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            break
    tracker._pid = None


def metric_values(
    record: Dict[str, Any], contract: Dict[str, Any]
) -> Dict[str, Dict[str, Any]]:
    """The record's metrics as the driver wants them: every end-to-end
    metric of the contract (median of its samples) for an untraced
    record, every per-layer metric for a traced one.  A layer that does
    not run on the workload, or whose private probe is absent, reads 0."""
    if record["traced"]:
        return {
            m["name"]: {
                "value": record["layers"].get(m["name"]) or 0.0,
                "unit": m["unit"],
            }
            for m in contract["per_layer"]
        }
    return {
        m["name"]: {
            "value": statistics.median(record["samples"][m["name"]]),
            "unit": m["unit"],
        }
        for m in contract["end_to_end"]
    }
