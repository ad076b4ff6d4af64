"""Turning raw recordings into the quantities the paper plots.

- **latency**: mean time from ``Multicast(d)`` to each remote delivery
  (the origin's own local delivery is excluded -- it is instantaneous by
  construction and the testbed could not even measure it);
- **payload/msg**: payload (MSG) transmissions per message *delivery* --
  1.0 is optimal (every delivery paid exactly one transmission), the
  fanout ``f`` is the eager-push worst case;
- **delivery ratio**: deliveries over ``messages x expected receivers``
  (Fig. 5b's "mean deliveries %");
- **structure**: top-5%-connection payload share (Figs. 4, 6c);
- **per-class splits**: payload contribution and latency of a node
  subset, for the "ranked (low)" / "combined (low)" series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.metrics.confidence import mean_confidence_interval, percentile
from repro.metrics.recorder import MetricsRecorder
from repro.metrics.structure import link_concentration


@dataclass(frozen=True)
class RunSummary:
    """Headline numbers of one experiment run."""

    messages: int
    expected_receivers: int
    deliveries: int
    delivery_ratio: float
    mean_latency_ms: float
    latency_ci_ms: float
    median_latency_ms: float
    p95_latency_ms: float
    payload_transmissions: int
    payload_per_delivery: float
    payload_per_message_per_node: float
    top_link_share: float
    control_packets: int
    total_bytes: int

    def row(self) -> Dict[str, float]:
        """Flat dict for table rendering."""
        return {
            "latency_ms": round(self.mean_latency_ms, 1),
            "payload_per_msg": round(self.payload_per_delivery, 2),
            "delivery_pct": round(self.delivery_ratio * 100.0, 2),
            "top5_share_pct": round(self.top_link_share * 100.0, 1),
        }


def _latencies(
    recorder: MetricsRecorder, nodes: Optional[Set[int]] = None
) -> List[float]:
    values: List[float] = []
    for message_id, per_node in recorder.deliveries.items():
        origin, sent_at = recorder.multicasts[message_id]
        for node, delivered_at in per_node.items():
            if node == origin:
                continue
            if nodes is not None and node not in nodes:
                continue
            values.append(delivered_at - sent_at)
    return values


def summarize(
    recorder: MetricsRecorder,
    expected_receivers: int,
    top_fraction: float = 0.05,
) -> RunSummary:
    """Aggregate one run.  ``expected_receivers`` is the number of nodes
    that should deliver each message (alive population size)."""
    if expected_receivers < 1:
        raise ValueError("expected_receivers must be >= 1")
    messages = recorder.message_count
    deliveries = recorder.delivery_count
    latencies = sorted(_latencies(recorder))
    if latencies:
        mean_latency, ci = mean_confidence_interval(latencies)
    else:
        mean_latency, ci = float("nan"), float("nan")
    payload = recorder.payload_transmissions
    control = (
        recorder.sent_packets.get("IHAVE", 0) + recorder.sent_packets.get("IWANT", 0)
    )
    per_node_messages = messages * expected_receivers
    return RunSummary(
        messages=messages,
        expected_receivers=expected_receivers,
        deliveries=deliveries,
        delivery_ratio=(deliveries / per_node_messages) if messages else 0.0,
        mean_latency_ms=mean_latency,
        latency_ci_ms=ci,
        median_latency_ms=percentile(latencies, 0.5),
        p95_latency_ms=percentile(latencies, 0.95),
        payload_transmissions=payload,
        payload_per_delivery=(payload / deliveries) if deliveries else 0.0,
        payload_per_message_per_node=(payload / per_node_messages) if messages else 0.0,
        top_link_share=link_concentration(recorder.link_payload_counts, top_fraction),
        control_packets=control,
        total_bytes=sum(recorder.sent_bytes.values()),
    )


def class_payload_rates(
    recorder: MetricsRecorder, node_classes: Dict[str, Iterable[int]]
) -> Dict[str, float]:
    """Payload transmissions per message *per node* for each class.

    This is the paper's Fig. 5(c)/6(a) decomposition: e.g. regular nodes
    contribute 1.20 payload/msg each while the 20% best nodes contribute
    10.77 each.  Messages with no recorded multicast time are ignored.
    """
    messages = recorder.message_count
    rates: Dict[str, float] = {}
    for label, nodes in node_classes.items():
        members = list(nodes)
        if not members or messages == 0:
            rates[label] = 0.0
            continue
        sent = sum(recorder.node_payload_sent.get(n, 0) for n in members)
        rates[label] = sent / (messages * len(members))
    return rates


def class_received_rates(
    recorder: MetricsRecorder, node_classes: Dict[str, Iterable[int]]
) -> Dict[str, float]:
    """Payload transmissions *received* per message per node, by class.

    The complement of :func:`class_payload_rates`: "average payload to
    80% of nodes" reads naturally as copies arriving at regular nodes,
    so both directions are reported.
    """
    messages = recorder.message_count
    rates: Dict[str, float] = {}
    for label, nodes in node_classes.items():
        members = list(nodes)
        if not members or messages == 0:
            rates[label] = 0.0
            continue
        received = sum(recorder.node_payload_received.get(n, 0) for n in members)
        rates[label] = received / (messages * len(members))
    return rates


def class_latency(
    recorder: MetricsRecorder, nodes: Iterable[int]
) -> Tuple[float, float]:
    """(mean, 95% CI half-width) latency over deliveries at ``nodes``."""
    values = _latencies(recorder, nodes=set(nodes))
    if not values:
        return float("nan"), float("nan")
    return mean_confidence_interval(values)
