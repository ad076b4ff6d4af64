"""The pinned RNG stream manifest.

``tests/lint/data/stream_manifest.json`` is a generated artifact: the
sorted JSON of every statically resolvable stream key pattern in
``src/repro`` with its call sites.  Pinning it makes any new, renamed or
relocated stream show up in review, exactly like the mypy ratchet list.
Regenerate with ``make lint-streams`` after an intentional change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.lint import MANIFEST_VERSION
from repro.lint.cli import render_manifest

REPO_ROOT = Path(__file__).resolve().parents[2]
PINNED = Path(__file__).parent / "data" / "stream_manifest.json"

REGENERATE = (
    "stream manifest drift -- if the change is intentional, regenerate "
    "the pinned copy with `make lint-streams`"
)


def test_pinned_manifest_is_current():
    generated = render_manifest([REPO_ROOT / "src" / "repro"], REPO_ROOT)
    assert generated == PINNED.read_text(encoding="utf-8"), REGENERATE


def test_cli_streams_flag_matches_pinned():
    result = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--streams", "src/repro"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == PINNED.read_text(encoding="utf-8"), REGENERATE


def test_manifest_shape_and_ordering():
    manifest = json.loads(PINNED.read_text(encoding="utf-8"))
    assert manifest["version"] == MANIFEST_VERSION
    assert manifest["dynamic_sites"] >= 0
    entries = [(e["pattern"], e["kind"]) for e in manifest["streams"]]
    assert entries == sorted(entries) and len(set(entries)) == len(entries)
    for entry in manifest["streams"]:
        assert entry["sites"], entry["pattern"]
        for site in entry["sites"]:
            assert sorted(site) == ["function", "module", "path"]
            assert not Path(site["path"]).is_absolute()
            assert "\\" not in site["path"]


def test_manifest_covers_the_core_streams():
    # The streams the experiments and the fault-parity suite rest on;
    # losing one of these from the manifest means the collector (or the
    # tree) regressed, not just churned.
    manifest = json.loads(PINNED.read_text(encoding="utf-8"))
    patterns = {(e["kind"], e["pattern"]) for e in manifest["streams"]}
    for expected in (
        ("stream", "failures"),
        ("stream", "network.fabric"),
        ("stream", "node.{node}"),
        ("derive_seed", "megasim.topology.plane"),
        ("derive_seed", "spawn:{name}"),  # RandomStreams.spawn's prefix
    ):
        assert expected in patterns, expected
