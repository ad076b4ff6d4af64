"""Export emergent structure for external plotting.

The paper's Fig. 4 plots the top-5% connections over the nodes'
pseudo-geographical positions, with node circles sized by payload
contribution.  These exporters produce that figure's data as artifacts:

- :func:`structure_to_dict` / :func:`save_structure_json` -- a JSON
  document with node positions, payload contributions, and the top-k%
  links with their weights;
- :func:`structure_to_dot` -- a Graphviz DOT rendering (positions pinned,
  pen widths proportional to traffic) that `neato -n2` turns straight
  into the Fig. 4 style of plot.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Tuple, Union

from repro.metrics.recorder import MetricsRecorder
from repro.topology.routing import ClientNetworkModel


def _top_links(
    recorder: MetricsRecorder, fraction: float
) -> Dict[Tuple[int, int], int]:
    """Top ``fraction`` of *undirected* connections by payload count."""
    undirected: Dict[Tuple[int, int], int] = {}
    for (src, dst), count in recorder.link_payload_counts.items():
        key = (src, dst) if src < dst else (dst, src)
        undirected[key] = undirected.get(key, 0) + count
    if not undirected:
        return {}
    keep = max(1, math.ceil(len(undirected) * fraction))
    ranked = sorted(undirected.items(), key=lambda item: item[1], reverse=True)
    return dict(ranked[:keep])


def structure_to_dict(
    recorder: MetricsRecorder,
    model: ClientNetworkModel,
    fraction: float = 0.05,
) -> dict:
    """The Fig. 4 data: positions, node loads, top links."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction out of range: {fraction}")
    top = _top_links(recorder, fraction)
    total_payload = sum(recorder.link_payload_counts.values())
    top_payload = sum(top.values())
    return {
        "format": "repro-emergent-structure",
        "version": 1,
        "fraction": fraction,
        "top_share": (top_payload / total_payload) if total_payload else 0.0,
        "nodes": [
            {
                "id": node,
                "x": model.positions[node].x,
                "y": model.positions[node].y,
                "payload_sent": recorder.node_payload_sent.get(node, 0),
            }
            for node in range(model.size)
        ],
        "links": [
            {"a": a, "b": b, "payloads": count}
            for (a, b), count in sorted(top.items())
        ],
    }


def save_structure_json(
    recorder: MetricsRecorder,
    model: ClientNetworkModel,
    path: Union[str, Path],
    fraction: float = 0.05,
) -> None:
    """Write the Fig. 4 JSON artifact to ``path``."""
    document = structure_to_dict(recorder, model, fraction)
    Path(path).write_text(json.dumps(document, indent=1), encoding="utf-8")


def structure_to_dot(
    recorder: MetricsRecorder,
    model: ClientNetworkModel,
    fraction: float = 0.05,
    scale: float = 0.02,
) -> str:
    """Graphviz DOT with pinned positions (render with ``neato -n2``)."""
    document = structure_to_dict(recorder, model, fraction)
    max_sent = max(
        (node["payload_sent"] for node in document["nodes"]), default=0
    ) or 1
    max_link = max((link["payloads"] for link in document["links"]), default=0) or 1
    lines = [
        "graph emergent_structure {",
        "  // render with: neato -n2 -Tsvg",
        "  node [shape=circle, style=filled, fillcolor=salmon, label=\"\"];",
    ]
    for node in document["nodes"]:
        size = 0.08 + 0.35 * node["payload_sent"] / max_sent
        lines.append(
            f'  n{node["id"]} [pos="{node["x"] * scale:.3f},'
            f'{node["y"] * scale:.3f}!", width={size:.3f}];'
        )
    for link in document["links"]:
        width = 0.5 + 4.0 * link["payloads"] / max_link
        lines.append(
            f'  n{link["a"]} -- n{link["b"]} [penwidth={width:.2f}];'
        )
    lines.append("}")
    return "\n".join(lines)
