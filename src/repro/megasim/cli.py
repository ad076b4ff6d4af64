"""``python -m repro.megasim``: one vectorized run from the shell.

The scale tier's front door: pick a strategy and a node count, get the
summary row (and throughput) back.  Wall-clock timing lives here -- and
only here -- because throughput is a *report about the host machine*,
not part of any simulated result; the determinism linter allowlists
this module for exactly that reason.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.experiments.reporting import format_table
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
    TOPOLOGY_PLANE,
    TOPOLOGY_UNIFORM,
    MegasimResult,
    MegasimSpec,
    run_megasim,
)
from repro.runtime.node import StrategyFactory

STRATEGIES = ("eager", "lazy", "flat", "ttl", "radius", "ranked", "hybrid")


def build_factory(args: argparse.Namespace) -> StrategyFactory:
    """The strategy factory named on the command line (CLI parity with
    ``repro run``)."""
    if args.strategy == "eager":
        return flat_factory(1.0)
    if args.strategy == "lazy":
        return flat_factory(0.0)
    if args.strategy == "flat":
        return flat_factory(args.probability)
    if args.strategy == "ttl":
        return ttl_factory(args.eager_rounds)
    if args.strategy == "radius":
        return radius_factory(metric="distance")
    if args.strategy == "ranked":
        return ranked_factory()
    return hybrid_factory()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.megasim",
        description="Vectorized epidemic rounds at 10^5-10^6 nodes.",
    )
    parser.add_argument("--nodes", type=int, default=100_000)
    parser.add_argument("--strategy", choices=STRATEGIES, default="flat")
    parser.add_argument(
        "--probability",
        type=float,
        default=1.0,
        help="Flat(p) eager probability (strategy=flat)",
    )
    parser.add_argument(
        "--eager-rounds",
        type=int,
        default=3,
        help="TTL(u) eager rounds (strategy=ttl)",
    )
    parser.add_argument("--messages", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fanout", type=int, default=11)
    parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="rounds cap (default: recommended_rounds for --nodes)",
    )
    parser.add_argument(
        "--topology",
        choices=(TOPOLOGY_PLANE, TOPOLOGY_UNIFORM),
        default=TOPOLOGY_PLANE,
    )
    parser.add_argument(
        "--view-degree",
        type=int,
        default=None,
        help="gossip over static partial views instead of the oracle",
    )
    parser.add_argument(
        "--loss",
        type=float,
        default=0.0,
        help="uniform per-packet Bernoulli loss probability on every "
        "link (exercises the IWANT retry machinery)",
    )
    parser.add_argument(
        "--fail-fraction",
        type=float,
        default=0.0,
        help="fraction of nodes crash-stopped before the first message",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes for multi-message fan-out (0 = one per CPU)",
    )
    parser.add_argument(
        "--track-links",
        action="store_true",
        help="record per-link payload counts and report the emergent-"
        "structure metrics (top-5%% link share, effective degree)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the row as JSON"
    )
    return parser


def result_row(
    args: argparse.Namespace, result: MegasimResult, elapsed_s: float
) -> "dict[str, object]":
    summary = result.summary
    total_node_visits = args.nodes * len(result.outcomes)
    row: "dict[str, object]" = {
        "strategy": args.strategy,
        "nodes": args.nodes,
        "messages": len(result.outcomes),
        "delivery_ratio": summary.delivery_ratio,
        "mean_latency_ms": summary.mean_latency_ms,
        "p95_latency_ms": summary.p95_latency_ms,
        "payload_per_delivery": summary.payload_per_delivery,
        "control_packets": summary.control_packets,
        "failed_nodes": len(result.failed),
        "retries": result.retries,
        "elapsed_s": elapsed_s,
        "nodes_per_s": total_node_visits / elapsed_s if elapsed_s > 0 else 0.0,
    }
    if result.structure is not None:
        row["top_link_share"] = result.structure.top_link_share
        row["effective_degree"] = result.structure.effective_degree
        row["used_links"] = result.structure.used_links
    return row


def build_faults(
    args: argparse.Namespace,
) -> "tuple[Optional[FailurePlan], Optional[GrayFailurePlan]]":
    """The (failure, gray) plans implied by --fail-fraction/--loss."""
    if not 0.0 <= args.loss <= 1.0:
        raise SystemExit(f"--loss out of range: {args.loss}")
    failure = (
        FailurePlan(fraction=args.fail_fraction)
        if args.fail_fraction > 0.0
        else None
    )
    gray = (
        GrayFailurePlan(
            lossy_link_fraction=1.0, link_loss_probability=args.loss
        )
        if args.loss > 0.0
        else None
    )
    return failure, gray


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    failure, gray = build_faults(args)
    spec = MegasimSpec(
        strategy_factory=build_factory(args),
        nodes=args.nodes,
        fanout=args.fanout,
        rounds=args.rounds,
        messages=args.messages,
        seed=args.seed,
        topology=args.topology,
        view_degree=args.view_degree,
        track_links=args.track_links,
        failure=failure,
        gray=gray,
    )
    started = time.perf_counter()
    result = run_megasim(spec, workers=args.workers)
    elapsed = time.perf_counter() - started
    row = result_row(args, result, elapsed)
    if args.json:
        print(json.dumps(row, indent=2, sort_keys=True))
    else:
        print(format_table([row]))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
