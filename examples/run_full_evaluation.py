#!/usr/bin/env python3
"""Regenerate the paper's full evaluation at paper scale.

Runs every table and figure of the evaluation section -- the same
registry ``repro figure`` serves -- on the 3037-router Inet model with
100 clients and 400 messages per run, then the baseline extensions,
printing each as a table.  This is the script whose output
EXPERIMENTS.md records.  Sweeps fan out over one worker per CPU; the
numbers are bit-identical for any worker count.

Takes a few minutes.  Run:  python examples/run_full_evaluation.py
Pass ``--quick`` for a fast reduced-scale pass.
"""

from __future__ import annotations

import argparse
import time
from functools import partial

from repro.cli import FIGURES, TABLES
from repro.experiments.baselines import compare_baselines, compare_under_failures
from repro.experiments.figures import FULL, QUICK
from repro.experiments.parallel import resolve_workers
from repro.experiments.reporting import ascii_scatter, print_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="reduced scale (seconds, not minutes)"
    )
    scale = QUICK if parser.parse_args().quick else FULL
    workers = resolve_workers(0)
    print(f"scale: {scale.name} ({scale.clients} clients, "
          f"{scale.routers} routers, {scale.messages} messages/run), "
          f"{workers} workers")

    stages = [
        (title, partial(fn, scale) if key in TABLES
         else partial(fn, scale, workers=workers))
        for key, (title, fn) in FIGURES.items()
    ]
    stages += [
        ("extension: baselines (stable)", partial(compare_baselines, scale)),
        ("extension: baselines (20% central nodes killed)",
         partial(compare_under_failures, scale, failed_fraction=0.2)),
        ("extension: baselines (same, tree repaired after 5 s)",
         partial(compare_under_failures, scale, failed_fraction=0.2,
                 repair_delay_ms=5_000.0)),
    ]
    begin = time.time()
    for title, stage in stages:
        start = time.time()
        rows = stage()
        print_table(f"{title}  [{time.time() - start:.0f}s]", rows)
        if title.startswith("figure 5(a)"):
            print()
            print(ascii_scatter(rows, x="payload_per_msg", y="latency_ms"))
    print(f"\ntotal: {time.time() - begin:.0f}s")


if __name__ == "__main__":
    main()
