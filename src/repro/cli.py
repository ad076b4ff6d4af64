"""Command-line interface: ``python -m repro <command>``.

Three commands cover the evaluation workflow without writing a script:

- ``topology`` -- generate an Inet-like model and print the section 5.1
  statistics table.
- ``run`` -- run one experiment (strategy, scale, seed) and print its
  summary row.
- ``figure`` -- regenerate one of the paper's figures/tables.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Any, Dict, Iterator, List, Optional, Type

from repro.backends import BACKEND_NAMES, DENSE_MODEL_LIMIT, megasim_spec
from repro.experiments.figures import (
    FULL,
    QUICK,
    Scale,
    SweepPointError,
    build_model,
    figure4,
    figure5a,
    figure5b,
    figure5c,
    figure6,
    section51_table,
    section54_statistics,
)
from repro.experiments.parallel import resolve_workers
from repro.experiments.replication import run_replicated
from repro.experiments.reporting import format_table
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import (
    flat_factory,
    hybrid_factory,
    radius_factory,
    ranked_factory,
    ttl_factory,
)
from repro.failures.gray import GrayFailurePlan
from repro.failures.injection import FailurePlan
from repro.topology.cache import cached_model
from repro.topology.inet import InetParameters
from repro.topology.stats import compute_statistics

#: ``repro figure`` keys in the paper's order: key -> (title, function).
FIGURES = {
    "5.1": ("section 5.1: network model", section51_table),
    "4": ("figure 4: emergent structure", figure4),
    "5a": ("figure 5(a): latency/bandwidth", figure5a),
    "5b": ("figure 5(b): reliability", figure5b),
    "5c": ("figure 5(c): hybrid strategy", figure5c),
    "6": ("figure 6: noise degradation", figure6),
    "5.4": ("section 5.4: run statistics", section54_statistics),
}

#: The tables computed from one model / one run: ``function(scale)``,
#: nothing to fan out or replicate.  Every other key is a strategy sweep
#: taking ``workers`` and ``replications``.
TABLES = ("5.1", "5.4")

STRATEGIES = {
    "eager": lambda args: flat_factory(1.0),
    "lazy": lambda args: flat_factory(0.0),
    "flat": lambda args: flat_factory(args.probability),
    "ttl": lambda args: ttl_factory(args.rounds),
    "radius": lambda args: radius_factory(),
    "ranked": lambda args: ranked_factory(),
    "hybrid": lambda args: hybrid_factory(),
}


def _scale(args: argparse.Namespace) -> Scale:
    base = FULL if args.scale == "full" else QUICK
    return Scale(
        name=base.name,
        clients=base.clients if args.clients is None else args.clients,
        routers=base.routers if args.routers is None else args.routers,
        messages=base.messages if args.messages is None else args.messages,
        warmup_ms=base.warmup_ms,
        seed=args.seed if args.seed is not None else base.seed,
    )


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for shell-completion tools)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Emergent Structure in Unstructured Epidemic Multicast "
        "(DSN 2007) -- reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    topo = sub.add_parser("topology", help="generate a model, print §5.1 stats")
    topo.add_argument("--routers", type=_at_least(1), default=3037)
    topo.add_argument("--clients", type=_at_least(2), default=100)
    topo.add_argument("--seed", type=int, default=1)

    run = sub.add_parser("run", help="run one experiment and print its summary")
    run.add_argument("strategy", choices=sorted(STRATEGIES))
    run.add_argument("--probability", type=float, default=0.5,
                     help="eager probability for the flat strategy")
    run.add_argument("--rounds", type=int, default=3,
                     help="eager rounds for the TTL strategy")
    run.add_argument(
        "--backend", choices=list(BACKEND_NAMES), default="event",
        help="simulation backend: the discrete-event kernel (default) "
        "or the vectorized round kernel (requires the repro[vector] "
        "extra; oracle strategies only).  The vector kernel routes a "
        f"real Inet model up to {DENSE_MODEL_LIMIT} clients, which "
        f"admits --clients <= --routers - {InetParameters.transit_count} "
        f"({FULL.routers - InetParameters.transit_count} at --scale full), "
        "and a synthetic plane above that",
    )
    run.add_argument(
        "--loss", type=_fraction(closed=True), default=0.0,
        help="per-packet Bernoulli loss probability on every link "
        "(GrayFailurePlan; supported by both backends)",
    )
    run.add_argument(
        "--fail-fraction", type=_fraction(closed=False), default=0.0,
        help="fraction of nodes crash-stopped (FailurePlan; supported "
        "by both backends; at least one node must stay alive)",
    )
    run.add_argument(
        "--view-degree", type=int, default=None,
        help="vector backend only: gossip over static partial views of "
        "this many nodes instead of the oracle sampler",
    )
    run.add_argument(
        "--track-links", action="store_true",
        help="vector backend only: record per-link payload counts and "
        "report the emergent-structure metrics (always on up to "
        f"{DENSE_MODEL_LIMIT} clients)",
    )
    _add_scale_arguments(run)

    fig = sub.add_parser("figure", help="regenerate a paper figure/table")
    fig.add_argument("figure", choices=sorted(FIGURES))
    _add_scale_arguments(fig)
    return parser


def _fraction(closed: bool):
    """argparse ``type=``: a float in ``[0, 1]`` (``closed``) or ``[0, 1)``."""

    def fraction(text: str) -> float:
        value = float(text)
        if 0.0 <= value < 1.0 or (closed and value == 1.0):
            return value
        interval = "[0, 1]" if closed else "[0, 1)"
        raise argparse.ArgumentTypeError(f"must be in {interval}, got {text}")

    return fraction


def _at_least(minimum: int):
    """argparse ``type=``: an integer ``>= minimum``."""

    def bounded(text: str) -> int:
        value = int(text)
        if value >= minimum:
            return value
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text}")

    return bounded


@contextlib.contextmanager
def _field_errors(
    errors: Type[ValueError] = ValueError,
) -> Iterator[None]:
    """Around the *construction* of parameters, specs and the model: a
    ``ValueError`` there names the field the command line got wrong, so
    it is a usage error -- one line and exit status 2, not a traceback.
    ``errors`` narrows the guard to the errors a wider block raises
    before it runs anything."""
    try:
        yield
    except errors as error:
        print(f"repro: error: {error}", file=sys.stderr)
        raise SystemExit(2) from None


def _add_scale_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", choices=["quick", "full"], default="quick")
    parser.add_argument("--clients", type=_at_least(2), default=None)
    parser.add_argument("--routers", type=_at_least(1), default=None)
    parser.add_argument("--messages", type=_at_least(1), default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--workers", type=_at_least(0), default=1,
        help="process-pool size for independent runs; 1 = serial "
        "(bit-identical fallback), 0 = one per CPU",
    )
    parser.add_argument(
        "--replications", type=_at_least(1), default=1,
        help="independent seeds per configuration (section 5.4 "
        "discipline); reported as mean ± 95%% half-width",
    )


def command_topology(args: argparse.Namespace) -> int:
    """``repro topology``: generate a model, print its statistics."""
    with _field_errors():
        model = cached_model(
            InetParameters(router_count=args.routers, client_count=args.clients),
            seed=args.seed,
        )
    stats = compute_statistics(model)
    rows = [{"statistic": label, "value": value} for label, value in stats.as_rows()]
    print(format_table(rows))
    return 0


def command_run(args: argparse.Namespace) -> int:
    """``repro run``: one experiment (or a replicated study), one row."""
    scale = _scale(args)
    vector = args.backend == "vector"
    for flag, where, misused in (
        ("--replications", "the event backend", args.replications > 1 and vector),
        ("--view-degree", "the vector backend",
         args.view_degree is not None and not vector),
        ("--track-links", "the vector backend", args.track_links and not vector),
    ):
        if misused:
            print(f"{flag} is only supported by {where}", file=sys.stderr)
            return 2
    # The tier choice, made once: a routed Inet model for the event
    # kernel and for the vector kernel up to DENSE_MODEL_LIMIT clients;
    # above it no model, and the slot kernel runs its synthetic plane.
    dense = not vector or scale.clients <= DENSE_MODEL_LIMIT
    with _field_errors():
        factory = STRATEGIES[args.strategy](args)
        failure = None
        if args.fail_fraction:
            failure = FailurePlan(fraction=args.fail_fraction)
            failure.victim_count(scale.clients)
        gray = (
            GrayFailurePlan(lossy_link_fraction=1.0, link_loss_probability=args.loss)
            if args.loss
            else None
        )
        spec = scale.spec(factory, seed=scale.seed, failure=failure, gray=gray)
        if vector:
            mega_spec = megasim_spec(
                spec,
                scale.clients,
                view_degree=args.view_degree,
                track_links=dense or args.track_links,
            )
        model = build_model(scale) if dense else None
    row: Dict[str, Any]
    if not vector:
        if args.replications > 1:
            row = run_replicated(
                model,
                spec,
                replications=args.replications,
                workers=resolve_workers(args.workers),
            ).row()
        else:
            row = run_experiment(model, spec).summary.row()
    else:
        # Imported here so ``--backend event`` never needs numpy.
        from repro.megasim.adapter import DenseTopology
        from repro.megasim.runner import run_megasim

        mega = run_megasim(
            mega_spec,
            workers=args.workers,
            topology=None if model is None else DenseTopology(model),
        )
        row = dict(
            mega.summary.row(), failed_nodes=len(mega.failed), retries=mega.retries
        )
        if mega.structure is None:
            del row["top5_share_pct"]  # NaN without link tracking
        else:
            row["effective_degree"] = mega.structure.effective_degree
            row["used_links"] = mega.structure.used_links
    print(format_table([dict(strategy=args.strategy, **row)]))
    return 0


def command_figure(args: argparse.Namespace) -> int:
    """``repro figure``: regenerate a paper figure/table."""
    _, figure_fn = FIGURES[args.figure]
    if args.figure in TABLES and args.replications > 1:
        sweeps = ", ".join(key for key in FIGURES if key not in TABLES)
        print(
            f"--replications is only supported by the sweep figures ({sweeps})",
            file=sys.stderr,
        )
        return 2
    scale = _scale(args)
    with _field_errors():
        build_model(scale)  # every figure starts from this (cached) model
    if args.figure in TABLES:
        rows = figure_fn(scale)
    else:
        # A point the model cannot run is refused before the pool starts.
        with _field_errors(SweepPointError):
            rows = figure_fn(
                scale,
                workers=resolve_workers(args.workers),
                replications=args.replications,
            )
    print(format_table(rows))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "topology": command_topology,
        "run": command_run,
        "figure": command_figure,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - module entry
    sys.exit(main())
