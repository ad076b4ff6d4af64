"""The gate: ``src/repro`` must lint clean with an **empty** baseline.

This is the test that turns the determinism rules into a merge blocker.
If it fails, fix the violation (seeded RNG, sorted iteration, frozen
factory, ...) or -- only for a reviewed, genuinely-safe site -- add a
``# noqa: DET0xx`` with a justifying comment.  Do not add a baseline
entry: the repository's invariant is that the baseline stays empty.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.lint import RULES, lint_paths
from repro.lint.rules import WALL_CLOCK_ALLOWLIST

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


def test_src_repro_is_clean():
    findings = lint_paths([SRC], root=REPO_ROOT)
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"determinism lint findings:\n{rendered}"


def test_no_megasim_module_may_read_a_wall_clock():
    """Nothing under ``src/repro/megasim`` is exempt from DET001: host
    timing of the scale tier lives in ``benchmarks/perf``."""
    assert not [
        entry for entry in WALL_CLOCK_ALLOWLIST
        if entry.startswith("repro.megasim")
    ]


def test_every_rule_has_an_id_and_summary():
    ids = [rule.rule_id for rule in RULES]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)
    for rule in RULES:
        assert rule.rule_id.startswith(("DET", "VEC"))
        assert rule.summary


def test_cli_entry_point_is_clean_on_src():
    result = subprocess.run(
        [sys.executable, "-m", "repro.lint", "src/repro"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert result.returncode == 0, result.stdout + result.stderr
