"""Emergent-structure export tests."""

from __future__ import annotations

import json

import pytest

from repro.metrics.export import (
    save_structure_json,
    structure_to_dict,
    structure_to_dot,
)
from repro.metrics.recorder import MetricsRecorder
from repro.network.message import Packet
from repro.topology.simple import random_metric_topology


def loaded_recorder(n=10):
    recorder = MetricsRecorder()
    # Heavy link 0-1 (both directions), light links elsewhere.
    for _ in range(50):
        recorder.on_send(
            Packet(src=0, dst=1, kind="MSG", payload=None, size_bytes=320), 0.0
        )
        recorder.on_send(
            Packet(src=1, dst=0, kind="MSG", payload=None, size_bytes=320), 0.0
        )
    for i in range(2, n):
        recorder.on_send(
            Packet(src=i, dst=(i + 1) % n, kind="MSG", payload=None, size_bytes=320),
            0.0,
        )
    return recorder


def test_structure_dict_contents():
    model = random_metric_topology(10, seed=1)
    document = structure_to_dict(loaded_recorder(), model, fraction=0.2)
    assert document["format"] == "repro-emergent-structure"
    assert len(document["nodes"]) == 10
    # Directed counts aggregate into undirected links; the heavy 0-1
    # link must rank first.
    top_link = max(document["links"], key=lambda link: link["payloads"])
    assert {top_link["a"], top_link["b"]} == {0, 1}
    assert top_link["payloads"] == 100
    assert 0 < document["top_share"] <= 1.0
    node0 = next(n for n in document["nodes"] if n["id"] == 0)
    assert node0["payload_sent"] == 50
    assert node0["x"] == model.positions[0].x


def test_fraction_bounds_link_count():
    model = random_metric_topology(10, seed=1)
    document = structure_to_dict(loaded_recorder(), model, fraction=0.11)
    # 9 undirected links used; ceil(9 * 0.11) = 1.
    assert len(document["links"]) == 1
    with pytest.raises(ValueError):
        structure_to_dict(loaded_recorder(), model, fraction=0.0)


def test_json_round_trip(tmp_path):
    model = random_metric_topology(10, seed=1)
    path = tmp_path / "structure.json"
    save_structure_json(loaded_recorder(), model, path, fraction=0.2)
    document = json.loads(path.read_text())
    assert document["version"] == 1
    assert len(document["nodes"]) == 10


def test_dot_output_is_wellformed():
    model = random_metric_topology(6, seed=2)
    recorder = MetricsRecorder()
    recorder.on_send(
        Packet(src=0, dst=1, kind="MSG", payload=None, size_bytes=320), 0.0
    )
    dot = structure_to_dot(recorder, model, fraction=1.0)
    assert dot.startswith("graph emergent_structure {")
    assert dot.rstrip().endswith("}")
    assert "n0 -- n1" in dot
    assert 'pos="' in dot
    # One node statement per node.
    assert sum(1 for line in dot.splitlines() if "[pos=" in line) == 6


def test_empty_recorder_exports_cleanly():
    model = random_metric_topology(4, seed=3)
    document = structure_to_dict(MetricsRecorder(), model)
    assert document["links"] == []
    assert document["top_share"] == 0.0

