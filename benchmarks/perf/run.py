"""Measure ONE workload in this (fresh) process -- the driver's entry point.

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric of ``/BENCHMARK.json`` with ``--trace 0``, every
per-layer metric with ``--trace 1``.  An operation is one user-facing
call (``run_experiment`` / ``figure4`` / ``run_megasim``) with its
output checks; simulated packets that the injected faults drop are a
simulated statistic (``delivered_share``), not failed operations.

``python -m benchmarks.perf run`` launches this file once per workload
and trace mode, with ``--out DIR`` to keep the full record and trace.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

if __package__ in (None, ""):
    # Run as a script from the repository root: make ``benchmarks.perf``
    # and ``repro`` importable instead of this directory's siblings.
    _ROOT = Path(__file__).resolve().parents[2]
    sys.path[0:1] = [str(_ROOT), str(_ROOT / "src")]

from benchmarks.perf import harness  # noqa: E402
from benchmarks.perf.workloads import BENCH, SMOKE, WORKLOADS  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, help="default: run_seconds of BENCHMARK.json"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test sizing")
    parser.add_argument("--out", type=Path, help="write record (and trace) here")
    args = parser.parse_args(argv)

    contract = harness.load_contract()
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    record = harness.measure(
        WORKLOADS[args.workload],
        seed=args.seed,
        seconds=(
            contract["run_seconds"] if args.seconds is None else args.seconds
        ),
        trace=bool(args.trace),
        sizing=SMOKE if args.smoke else BENCH,
        trace_path=(
            args.out / f"{args.workload}.spans.json"
            if args.out is not None and args.trace
            else None
        ),
    )
    for failure in record["failures"]:
        print(f"CHECK FAILED [{args.workload}] {failure}", file=sys.stderr)
    if record["sim_digest"] is None:
        return 1  # nothing ran to completion: no result to report
    if args.out is not None:
        suffix = ".trace" if args.trace else ""
        (args.out / f"{args.workload}{suffix}.json").write_text(
            json.dumps(record, indent=1)
        )
    print(
        json.dumps(
            {
                "correct": not record["failures"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": harness.metric_values(record, contract),
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    finally:
        harness.stop_children()  # no process outlives the run, however it ends
    sys.exit(status)
