"""The client network model, pinned where it is made.

sha256 of the row-major little-endian matrices (float64 / int64) at seed
1, computed on PR 22's parent commit (heap Dijkstra over the full graph).
A routing change that moves one bit fails here, not three layers later in
a golden trace.
"""

from __future__ import annotations

import hashlib
import struct

import pytest

from repro.experiments.figures import FULL, QUICK, build_model
from repro.topology.inet import InetParameters, generate_inet
from repro.topology.routing import _client_core

_MODEL_DIGESTS = {
    "quick": (
        "e828414d79013549271d7de0af0cf5db7017ec30fe05523fc4dd78fe24d954b2",
        "416e1597787201568ccac2fae13ee051e7d587969110eb3e171a12f46a427244",
    ),
    "full": (
        "8bfe0dd9c5cdf6109e6ddbc607f7716fba4bd1b1ccba44de559bfb4707bcfb53",
        "de8f9312c854621b8ba5f8fb4c9b80290417ba4062ab316127b330503b154d41",
    ),
}


def _matrix_digest(rows, code: str) -> str:
    digest = hashlib.sha256()
    for row in rows:
        digest.update(struct.pack(f"<{len(row)}{code}", *row))
    return digest.hexdigest()


@pytest.mark.parametrize("scale", [QUICK, FULL], ids=lambda scale: scale.name)
def test_model_digests_are_pinned(scale):
    model = build_model(scale)
    assert (
        _matrix_digest(model.latency_ms, "d"),
        _matrix_digest(model.hops, "q"),
    ) == _MODEL_DIGESTS[scale.name]


def test_full_scale_client_core_size():
    """Of the 3,137 nodes of the paper-scale graph, about a fifth can lie
    on a client-to-client path; the sweep visits only those."""
    topo = generate_inet(
        InetParameters(
            router_count=FULL.routers,
            client_count=FULL.clients,
            target_mean_latency_ms=None,
        ),
        seed=FULL.seed,
    )
    assert topo.graph.node_count == 3137
    assert len(_client_core(topo.graph, topo.client_ids)) == 662
