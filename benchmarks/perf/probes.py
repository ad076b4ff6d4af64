"""Probe tables (where spans are installed) and the per-layer metrics.

Counts the layers already expose (``LazyPointToPoint.eager_sends``,
``ConnectionTransport.purged_count``, ``ExperimentResult.recovery``,
``shared_cache().stats()``, ``MessageOutcome.retries`` ...) are read,
not re-derived from spans.  A metric whose private probe target is
absent is ``None`` (its time folds into the enclosing span's self time).
"""

from __future__ import annotations

import resource
import statistics
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.topology.cache import shared_cache

from benchmarks.perf.tracing import Hook, Probe, Tracer
from benchmarks.perf.workloads import PAPER_TOP5_PCT, POOL_WORKERS, Outcome

Layers = Dict[str, Optional[float]]


def _add(name: str, amount: Any) -> Hook:
    def hook(tr: Tracer, args: Any, result: Any, start: float, end: float) -> None:
        tr.counts[name] += amount(result)

    return hook


def _mask_counts(prefix: str) -> Hook:
    def hook(tr: Tracer, args: Any, result: Any, start: float, end: float) -> None:
        tr.counts[prefix + ".true"] += int(np.count_nonzero(result))
        tr.counts[prefix + ".size"] += int(result.shape[0])

    return hook


def _keep_self(name: str) -> Hook:
    def hook(tr: Tracer, args: Any, result: Any, start: float, end: float) -> None:
        tr.objects[name].append(args[0])

    return hook


def _mark(name: str) -> Hook:
    def hook(tr: Tracer, args: Any, result: Any, start: float, end: float) -> None:
        tr.marks.append((name, start, end))

    return hook


_ROUTING = "repro.topology.routing:ClientNetworkModel."
_CLUSTER = "repro.runtime.cluster:Cluster."
_SIM = "repro.sim.engine:Simulator."
_FABRIC = "repro.network.fabric:NetworkFabric."
_ENDPOINT = "repro.network.transport:Endpoint."
_OVERLAY = "repro.membership.neem_overlay:NeemOverlay."
_SCHEDULER = "repro.scheduler.lazy_point_to_point:LazyPointToPoint."
_GOSSIP = "repro.gossip.protocol:GossipProtocol."
_RECORDER = "repro.metrics.recorder:MetricsRecorder."

EVENT_PROBES: List[Probe] = [
    Probe("repro.topology.cache:generate_inet"),
    Probe(_ROUTING + "from_inet"),
    Probe(_ROUTING + "from_topology"),
    Probe(_ROUTING + "from_scaled_sweep"),
    Probe("repro.experiments.figures:cached_model"),
    Probe(_CLUSTER + "__init__", hook=_keep_self("clusters")),
    Probe(_CLUSTER + "start"),
    Probe(_CLUSTER + "run_for"),
    Probe(_CLUSTER + "multicast", request=True),
    Probe(_SIM + "run", hook=_add("sim.events", int)),
    # The scheduled callback runs in a span named after its own module.
    Probe(_SIM + "schedule", callback_arg=2),
    Probe(_SIM + "schedule_at", callback_arg=2),
    Probe(_SIM + "call_soon", callback_arg=1),
    Probe(_FABRIC + "send"),
    Probe(_FABRIC + "abort"),
    Probe(_FABRIC + "register", callback_arg=2),
    Probe(_ENDPOINT + "send"),
    Probe(_ENDPOINT + "set_receiver", callback_arg=1),
    Probe(_OVERLAY + "sample"),
    Probe(_OVERLAY + "handle"),
    Probe(_SCHEDULER + "l_send"),
    Probe(_SCHEDULER + "handle"),
    Probe(_GOSSIP + "multicast_with_id"),
    Probe(_GOSSIP + "l_receive"),
    Probe("repro.strategies.base:BaseStrategy.first_request_delay"),
    Probe("repro.strategies.base:BaseStrategy.select_source"),
    Probe("repro.strategies.flat:FlatStrategy.eager"),
    Probe("repro.strategies.radius:RadiusStrategy.eager"),
    Probe("repro.strategies.radius:RadiusStrategy.first_request_delay"),
    Probe("repro.strategies.radius:RadiusStrategy.select_source"),
    Probe("repro.strategies.ranked:RankedStrategy.eager"),
    Probe(_RECORDER + "on_send"),
    Probe(_RECORDER + "on_deliver"),
    Probe(_RECORDER + "on_drop"),
    Probe(_RECORDER + "on_multicast"),
    Probe(_RECORDER + "on_app_deliver"),
    Probe(_RECORDER + "enable", hook=_mark("enable")),
    Probe(_RECORDER + "disable", hook=_mark("disable")),
    Probe("repro.experiments.runner:summarize"),
    Probe("repro.experiments.runner:run_experiment", hook=_mark("run")),
    Probe("repro.experiments.parallel:run_experiment", hook=_mark("run")),
    Probe("repro.experiments.figures:run_experiments"),
    Probe("repro.experiments.figures:figure4"),
]

_ROUTING_SPANS = tuple(
    f"ClientNetworkModel.from_{source}"
    for source in ("inet", "topology", "scaled_sweep")
)
_RECORDER_SPANS = tuple(
    f"MetricsRecorder.on_{event}"
    for event in ("send", "deliver", "drop", "multicast", "app_deliver")
)

_RUNNER = "repro.megasim.runner:"
_ROUNDS = "repro.megasim.rounds:"
_EVALUATORS = ("Flat", "Ttl", "Radius", "Ranked", "Hybrid")

MEGA_PROBES: List[Probe] = [
    Probe(_RUNNER + "run_megasim"),
    Probe(_RUNNER + "build_topology"),
    Probe(_RUNNER + "build_views"),
    Probe(_RUNNER + "compile_faults"),
    Probe(_RUNNER + "compile_strategy"),
    Probe(_RUNNER + "derive_message_seeds"),
    Probe(_RUNNER + "message_origins"),
    Probe(
        _RUNNER + "disseminate", request=True,
        hook=lambda tr, args, result, start, end: tr.objects[
            "message_s"
        ].append(end - start),
    ),
    Probe(_RUNNER + "run_tasks"),
    Probe(_RUNNER + "summary_from_outcomes"),
    Probe(_RUNNER + "structure_metrics"),
    Probe(_RUNNER + "MegasimResult.__post_init__"),
    Probe(
        _ROUNDS + "sample_targets",
        hook=_add("pairs", lambda result: int(result[0].shape[0])),
    ),
    Probe(_ROUNDS + "_process_arrivals"),
    Probe(_ROUNDS + "_fire_requests"),
    Probe(_ROUNDS + "_emit_pulls"),
    Probe(_ROUNDS + "_process_adverts"),
    *(
        Probe(
            f"repro.megasim.strategies:{kind}Evaluator.eager_mask",
            hook=_mask_counts("eager"),
        )
        for kind in _EVALUATORS
    ),
    Probe(
        "repro.megasim.adapter:CompiledFaults.deliver_mask",
        hook=_mask_counts("kept"),
    ),
    Probe("repro.megasim.adapter:PlaneTopology.metric"),
    Probe(
        "repro.megasim.arena:MegasimArena.__init__", hook=_keep_self("arenas")
    ),
    Probe("repro.megasim.arena:MegasimArena.close"),
]

_EAGER_MASK_SPANS = tuple(f"{kind}Evaluator.eager_mask" for kind in _EVALUATORS)


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _private_total(tracer: Tracer, *names: str) -> Optional[float]:
    """Total time of module-private spans; ``None`` when any is absent."""
    if any(t.rsplit(":", 1)[1] in names for t in tracer.missing):
        return None
    return tracer.total_s(*names)


def _phases(tracer: Tracer) -> Tuple[float, float]:
    """(warm-up, measure) host seconds summed over ``run_experiment``
    calls, split where the runner enables and last disables recording."""
    warmup = measure = 0.0
    for name, run_start, run_end in tracer.marks:
        if name != "run":
            continue
        inside = [m for m in tracer.marks if run_start <= m[1] <= run_end]
        enabled = [m[1] for m in inside if m[0] == "enable"]
        disabled = [m[2] for m in inside if m[0] == "disable"]
        if enabled and disabled:
            warmup += enabled[0] - run_start
            measure += disabled[-1] - enabled[0]
    return warmup, measure


def event_layers(
    setup: Tracer,
    main: Tracer,
    kernel: Tracer,
    outcome: Outcome,
    pooled: bool,
    untraced_wall_s: float,
) -> Layers:
    """Per-layer metrics of an event-kernel workload.  ``kernel`` is the
    pass whose in-process spans cover the simulation itself: the serial
    pass of a pooled workload, ``main`` otherwise."""
    results = outcome.results
    cache_stats = shared_cache().stats()
    sent = {
        kind: sum(r.recorder.sent_packets[kind] for r in results)
        for kind in ("IHAVE", "IWANT")
    }
    msg_received = sum(r.recorder.delivered_packets["MSG"] for r in results)
    nodes = [node for c in kernel.objects["clusters"] for node in c.nodes]
    eager = sum(node.scheduler.eager_sends for node in nodes)
    lazy = sum(node.scheduler.lazy_sends for node in nodes)
    warmup_s, measure_s = _phases(kernel)
    fabric_sends = kernel.calls("NetworkFabric.send")
    layers: Layers = {
        # generate_inet calibrates through a routing sweep: its self time
        # is generation proper, the model constructors' the routing.
        "topology.generate_s": setup.self_s("generate_inet"),
        "topology.routing_s": setup.self_s(*_ROUTING_SPANS),
        "topology.cache_hits": cache_stats["hits"],
        "topology.cache_misses": cache_stats["misses"],
        "runtime.build_s": kernel.total_s("Cluster.__init__"),
        "experiments.runner.warmup_s": warmup_s,
        "experiments.runner.measure_s": measure_s,
        "metrics.summarize_s": kernel.total_s("summarize"),
        "sim.events": kernel.counts["sim.events"],
        "sim.schedule_calls": kernel.calls(
            "Simulator.schedule", "Simulator.schedule_at", "Simulator.call_soon"
        ),
        "sim.self_s": kernel.self_s(layer="sim"),
        # Host time per simulated event is quoted against untraced wall
        # time; the traced pass only supplies the event count.
        "sim.events_per_s": kernel.counts["sim.events"] / untraced_wall_s,
        "network.fabric.sends": fabric_sends,
        "network.fabric.self_s": kernel.self_s(layer="network.fabric"),
        "network.fabric.drops": kernel.calls("MetricsRecorder.on_drop"),
        "network.fabric.fast_path_share": max(
            0.0,
            1.0 - _share(kernel.calls("MetricsRecorder.on_send"), fabric_sends),
        ),
        "network.transport.sends": kernel.calls("Endpoint.send"),
        "network.transport.self_s": kernel.self_s(layer="network.transport"),
        "network.transport.purged": sum(
            getattr(c.transport, "purged_count", 0)
            for c in kernel.objects["clusters"]
        ),
        "membership.calls": kernel.calls(layer="membership"),
        "membership.self_s": kernel.self_s(layer="membership"),
        "scheduler.l_sends": kernel.calls("LazyPointToPoint.l_send"),
        "scheduler.self_s": kernel.self_s(layer="scheduler"),
        "scheduler.eager_share": _share(eager, eager + lazy),
        "scheduler.ihave_sent": sent["IHAVE"],
        "scheduler.iwant_sent": sent["IWANT"],
        "scheduler.retries": sum(r.recovery.get("retries", 0) for r in results),
        "scheduler.duplicate_payloads": sum(
            node.scheduler.duplicate_payloads for node in nodes
        ),
        "gossip.receives": kernel.calls("GossipProtocol.l_receive"),
        "gossip.self_s": kernel.self_s(layer="gossip"),
        "gossip.duplicate_share": max(
            0.0, 1.0 - _share(outcome.deliveries, msg_received)
        ),
        "strategies.decisions": kernel.calls(layer="strategies"),
        "strategies.self_s": kernel.self_s(layer="strategies"),
        "metrics.recorder_calls": kernel.calls(*_RECORDER_SPANS),
        "metrics.recorder_self_s": kernel.self_s(*_RECORDER_SPANS),
    }
    if pooled:
        pool_s = main.total_s("run_experiments")
        layers["experiments.parallel.pool_s"] = pool_s
        layers["experiments.parallel.efficiency"] = _share(
            kernel.total_s("run_experiment"), POOL_WORKERS * pool_s
        )
        layers["experiments.figures.paper_err_pts"] = statistics.fmean(
            abs(row["top5_share_pct"] - paper)
            for row, paper in zip(outcome.rows or [], PAPER_TOP5_PCT)
        )
    return layers


def mega_layers(
    setup: Tracer, main: Tracer, kernel: Tracer, outcome: Outcome, pooled: bool
) -> Layers:
    """Per-layer metrics of a megasim workload (``kernel`` as above)."""
    result = outcome.results
    outcomes = result.outcomes
    message_ms = sorted(1e3 * s for s in kernel.objects["message_s"])
    deciles = statistics.quantiles(message_ms, n=10, method="inclusive")
    layers: Layers = {
        "megasim.adapter.topology_s": setup.total_s("build_topology"),
        "megasim.adapter.views_s": setup.total_s("build_views"),
        "megasim.adapter.faults_compile_s": setup.total_s("compile_faults"),
        "megasim.strategies.compile_s": setup.total_s("compile_strategy"),
        "megasim.rounds.messages": kernel.calls("disseminate"),
        "megasim.rounds.slots": sum(o.slots_elapsed for o in outcomes),
        "megasim.rounds.disseminate_s": kernel.total_s("disseminate"),
        "megasim.rounds.msg_ms_p50": deciles[4],
        "megasim.rounds.msg_ms_p90": deciles[8],
        "megasim.rounds.sample_targets_s": kernel.total_s("sample_targets"),
        "megasim.rounds.sample_targets_pairs": kernel.counts["pairs"],
        "megasim.rounds.arrivals_s": _private_total(kernel, "_process_arrivals"),
        "megasim.rounds.requests_s": _private_total(
            kernel, "_fire_requests", "_emit_pulls"
        ),
        "megasim.rounds.adverts_s": _private_total(kernel, "_process_adverts"),
        # Whatever no child span covers, absent private probes included.
        "megasim.rounds.other_s": kernel.self_s("disseminate"),
        "megasim.rounds.retries": sum(o.retries for o in outcomes),
        "megasim.strategies.eager_mask_s": kernel.total_s(*_EAGER_MASK_SPANS),
        "megasim.strategies.eager_mask_calls": kernel.calls(*_EAGER_MASK_SPANS),
        "megasim.strategies.eager_share": _share(
            kernel.counts["eager.true"], kernel.counts["eager.size"]
        ),
        "megasim.adapter.metric_s": kernel.total_s("PlaneTopology.metric"),
        "megasim.adapter.deliver_mask_s": kernel.total_s(
            "CompiledFaults.deliver_mask"
        ),
        "megasim.adapter.deliver_mask_calls": kernel.calls(
            "CompiledFaults.deliver_mask"
        ),
        "megasim.adapter.dropped_share": (
            1.0 - _share(kernel.counts["kept.true"], kernel.counts["kept.size"])
            if kernel.counts["kept.size"]
            else 0.0
        ),
        "megasim.links.structure_s": main.total_s("structure_metrics"),
        "megasim.links.used_links": (
            result.structure.used_links if result.structure else 0
        ),
        "megasim.links.top5_share": (
            result.structure.top_link_share if result.structure else 0.0
        ),
        "megasim.adapter.summary_s": main.total_s("summary_from_outcomes"),
        "megasim.runner.result_s": main.total_s("MegasimResult.__post_init__"),
        "megasim.runner.seeds_s": main.total_s(
            "derive_message_seeds", "message_origins"
        ),
    }
    if pooled:
        pool_s = main.total_s("run_tasks")
        layers["megasim.arena.pack_s"] = main.total_s("MegasimArena.__init__")
        layers["megasim.arena.bytes"] = sum(
            _layout_bytes(arena.layout) for arena in main.objects["arenas"]
        )
        layers["megasim.arena.worker_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        )
        layers["megasim.runner.pool_s"] = pool_s
        layers["megasim.runner.pool_efficiency"] = _share(
            kernel.total_s("disseminate"), POOL_WORKERS * pool_s
        )
    return layers


def _layout_bytes(layout: Any) -> int:
    if layout.inline is not None:
        return sum(array.nbytes for array in layout.inline.values())
    return sum(
        int(np.prod(ref.shape)) * np.dtype(ref.dtype).itemsize
        for _, ref in layout.arrays
    )
