"""Judge two result files of ``python -m benchmarks.perf run``.

One row per (metric, workload): base median, new median, the ratio with
its base, the bound fixed in ``/BENCHMARK.json`` and a verdict:

- ``worse`` / ``better`` -- the median moved against / with the metric's
  direction by more than the bound;
- ``unresolved`` -- a side's own repetitions spread (quartile distance
  over median) wider than the bound *and* the two sides' samples
  overlap, so the move cannot be told from noise;
- ``same`` -- otherwise.

``undelivered_share`` has bound 0: any increase is ``worse``.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Sequence, TextIO

#: Exact metric outside the contract file: failed / attempted deliveries.
UNDELIVERED = {
    "name": "undelivered_share", "unit": "ratio", "better": "lower",
    "bound": 0.0,
}


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    unit: str
    base: float
    new: float
    bound: float
    verdict: str

    @property
    def ratio(self) -> float:
        return self.new / self.base if self.base else float("nan")


def spread(samples: Sequence[float]) -> float:
    """Quartile distance over median; 0 for fewer than two samples."""
    median = statistics.median(samples)
    if len(samples) < 2 or not median:
        return 0.0
    quartiles = statistics.quantiles(samples, n=4)
    return (quartiles[2] - quartiles[0]) / abs(median)


def verdict(
    base: Sequence[float], new: Sequence[float], better: str, bound: float
) -> str:
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    if base_median:
        worsening = sign * (new_median - base_median) / abs(base_median)
    else:
        worsening = sign * (new_median - base_median)
    overlap = min(base) <= max(new) and min(new) <= max(base)
    if max(spread(base), spread(new)) > bound and overlap and bound > 0:
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def _records(document: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    return {
        record["workload"]: record
        for record in document["records"]
        if not record["traced"]
    }


def rows(
    base: Dict[str, Any], new: Dict[str, Any], contract: Dict[str, Any]
) -> Iterator[Row]:
    """Rows for every workload present on both sides, in contract order."""
    base_records, new_records = _records(base), _records(new)
    for workload in (w["name"] for w in contract["workloads"]):
        if workload not in base_records or workload not in new_records:
            continue
        for metric in [*contract["end_to_end"], UNDELIVERED]:
            old = base_records[workload]["samples"][metric["name"]]
            cur = new_records[workload]["samples"][metric["name"]]
            yield Row(
                workload, metric["name"], metric["unit"],
                statistics.median(old), statistics.median(cur),
                metric["bound"],
                verdict(old, cur, metric["better"], metric["bound"]),
            )


def changed_digests(base: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    base_records, new_records = _records(base), _records(new)
    return [
        workload
        for workload in base_records
        if workload in new_records
        and base_records[workload]["sim_digest"]
        != new_records[workload]["sim_digest"]
    ]


def compare(
    base_path: str, new_path: str, contract: Dict[str, Any], out: TextIO
) -> int:
    """Print the table; 1 if anything is ``worse`` (which covers a larger
    ``undelivered_share``), else 0."""
    with open(base_path, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(new_path, encoding="utf-8") as handle:
        new = json.load(handle)
    table = list(rows(base, new, contract))
    print(
        f"{'workload':20s} {'metric':22s} {'base':>14s} {'new':>14s} "
        f"{'new/base':>9s} {'bound':>7s}  verdict",
        file=out,
    )
    for row in table:
        print(
            f"{row.workload:20s} {row.metric:22s} {row.base:14.6g} "
            f"{row.new:14.6g} {row.ratio:9.4f} {row.bound:7.1%}  "
            f"{row.verdict}  [{row.unit}]",
            file=out,
        )
    for workload in changed_digests(base, new):
        print(
            f"simulated results changed on {workload}: sim_digest differs "
            "(a sim-speed change must leave every simulated statistic "
            "identical)",
            file=out,
        )
    return 1 if any(row.verdict == "worse" for row in table) else 0
