"""Model-file serialization.

ModelNet materializes its network model as a file, and the paper's
evaluation reads "global knowledge of the network that is extracted
directly from the model file" (section 4.3).  This module gives the
reproduction the same artifact: a JSON model file holding the client
latency/hop matrices and positions, so expensive topologies are
generated once and reused across experiment processes, and so external
tools can inspect exactly what the strategies saw.

The format is versioned and intentionally flat: a header with counts and
provenance, then row-major matrices.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.topology.geometry import Point
from repro.topology.routing import ClientNetworkModel

FORMAT_NAME = "repro-client-model"
FORMAT_VERSION = 1


def model_to_dict(
    model: ClientNetworkModel, provenance: str = ""
) -> Dict[str, Any]:
    """Serializable representation of a client network model."""
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "provenance": provenance,
        "clients": model.size,
        "latency_ms": model.latency_ms,
        "hops": model.hops,
        "positions": [[p.x, p.y] for p in model.positions],
    }


def model_from_dict(data: Dict[str, Any]) -> ClientNetworkModel:
    """Inverse of :func:`model_to_dict`; validates the header."""
    if data.get("format") != FORMAT_NAME:
        raise ValueError(f"not a {FORMAT_NAME} document: {data.get('format')!r}")
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model-file version {version!r}")
    positions = [Point(x, y) for x, y in data["positions"]]
    model = ClientNetworkModel(data["latency_ms"], data["hops"], positions)
    if model.size != data.get("clients"):
        raise ValueError(
            f"header declares {data.get('clients')} clients, matrices hold "
            f"{model.size}"
        )
    return model


def save_model(
    model: ClientNetworkModel,
    path: Union[str, Path],
    provenance: str = "",
) -> None:
    """Write the model file to ``path`` (JSON)."""
    document = model_to_dict(model, provenance=provenance)
    Path(path).write_text(json.dumps(document), encoding="utf-8")


def load_model(path: Union[str, Path]) -> ClientNetworkModel:
    """Read a model file written by :func:`save_model`."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return model_from_dict(data)
