"""``python -m benchmarks.perf {run,compare}`` (with ``PYTHONPATH=src``)."""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy

from benchmarks.perf import harness
from benchmarks.perf.compare import UNDELIVERED, compare

_HERE = Path(__file__).resolve().parent


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_HERE, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_fingerprint() -> Dict[str, Any]:
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _child(workload: str, args: argparse.Namespace, trace: int) -> Dict[str, Any]:
    """One workload, one trace mode, in a fresh process of its own (so
    ``peak_rss_mb`` is per workload); returns the record it wrote."""
    command = [
        sys.executable, str(_HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--out", str(args.out),
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} (trace={trace}) exited {done.returncode}")
    suffix = ".trace" if trace else ""
    return json.loads((args.out / f"{workload}{suffix}.json").read_text())


def _print_record(record: Dict[str, Any], contract: Dict[str, Any]) -> None:
    name = record["workload"]
    if record["traced"]:
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
        for layer, value in record["layers"].items():
            shown = "null" if value is None else f"{value:.6g}"
            print(f"{name:20s} {layer:38s} {shown:>14s} {units[layer]}")
        return
    for metric in [*contract["end_to_end"], UNDELIVERED]:
        samples = record["samples"][metric["name"]]
        clock = "simulated" if metric["name"] in harness.SIMULATED else "host"
        print(
            f"{name:20s} {metric['name']:22s} "
            f"{statistics.median(samples):14.6g} {metric['unit']:6s} "
            f"n={len(samples):<3d} bound={metric['bound']:.1%}  {clock}"
        )


def _run(args: argparse.Namespace) -> int:
    contract = harness.load_contract()
    if args.seconds is None:
        args.seconds = contract["run_seconds"]
    names = [w["name"] for w in contract["workloads"]]
    if args.workload is not None:
        names = [args.workload]
    args.out.mkdir(parents=True, exist_ok=True)
    records: List[Dict[str, Any]] = []
    for name in names:
        for trace in (0, 1):
            record = _child(name, args, trace)
            records.append(record)
            _print_record(record, contract)
            for failure in record["failures"]:
                print(f"{name:20s} CHECK FAILED: {failure}")
    document = {
        "schema": 1,
        "git_sha": _git_sha(),
        "machine": machine_fingerprint(),
        "seed": args.seed,
        "seconds": args.seconds,
        "records": records,
    }
    path = args.out / "results.json"
    path.write_text(json.dumps(document, indent=1))
    print(f"wrote {path}")
    return 1 if any(record["failures"] for record in records) else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure workloads, one process each")
    run.add_argument("--workload")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument(
        "--seconds", type=float, help="default: run_seconds of BENCHMARK.json"
    )
    run.add_argument("--out", type=Path, default=_HERE / "out")
    run.add_argument("--smoke", action="store_true", help="self-test sizing")
    cmp_ = commands.add_parser("compare", help="judge NEW against BASE")
    cmp_.add_argument("base")
    cmp_.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "run":
        return _run(args)
    return compare(args.base, args.new, harness.load_contract(), sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
