"""Topology statistics matching the paper's section 5.1 table.

The paper characterizes its network model with four numbers; this module
computes all of them from a :class:`~repro.topology.routing.ClientNetworkModel`
so the generator can be validated (and the table regenerated):

- average hop distance between client nodes: 5.54;
- share of client pairs within 5 and 6 hops: 74.28%;
- average end-to-end latency: 49.83 ms;
- share of client pairs between 39 ms and 60 ms: 50%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.metrics.confidence import percentile
from repro.topology.routing import ClientNetworkModel


@dataclass(frozen=True)
class TopologyStatistics:
    """The section 5.1 statistics for a client network model."""

    client_count: int
    mean_hop_distance: float
    share_hops_5_to_6: float
    mean_latency_ms: float
    share_latency_39_to_60: float
    median_latency_ms: float
    latency_p25_ms: float
    latency_p75_ms: float

    def as_rows(self) -> List[Tuple[str, str]]:
        """Human-readable (label, value) rows for table rendering."""
        return [
            ("clients", str(self.client_count)),
            ("mean hop distance", f"{self.mean_hop_distance:.2f}"),
            ("pairs within 5-6 hops", f"{self.share_hops_5_to_6 * 100:.2f}%"),
            ("mean end-to-end latency", f"{self.mean_latency_ms:.2f} ms"),
            (
                "pairs within 39-60 ms",
                f"{self.share_latency_39_to_60 * 100:.2f}%",
            ),
            ("median latency", f"{self.median_latency_ms:.2f} ms"),
        ]


def compute_statistics(model: ClientNetworkModel) -> TopologyStatistics:
    """Compute the section 5.1 statistics over unordered client pairs."""
    n = model.size
    if n < 2:
        raise ValueError("need at least two clients")
    latencies: List[float] = []
    hop_values: List[int] = []
    for i in range(n):
        for j in range(i + 1, n):
            latencies.append(model.latency_ms[i][j])
            hop_values.append(model.hops[i][j])
    pair_count = len(latencies)
    latencies.sort()

    mean_hops = sum(hop_values) / pair_count
    hops_5_to_6 = sum(1 for h in hop_values if 5 <= h <= 6) / pair_count
    mean_latency = sum(latencies) / pair_count
    in_band = sum(1 for lat in latencies if 39.0 <= lat <= 60.0) / pair_count

    return TopologyStatistics(
        client_count=n,
        mean_hop_distance=mean_hops,
        share_hops_5_to_6=hops_5_to_6,
        mean_latency_ms=mean_latency,
        share_latency_39_to_60=in_band,
        median_latency_ms=percentile(latencies, 0.5),
        latency_p25_ms=percentile(latencies, 0.25),
        latency_p75_ms=percentile(latencies, 0.75),
    )
