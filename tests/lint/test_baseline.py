"""Baseline round-trip and filtering semantics."""

from __future__ import annotations

import json

import pytest

from repro.lint import Baseline, Finding


def _finding(rule="DET001", path="src/repro/x.py", line=10, message="boom"):
    return Finding(path=path, line=line, col=0, rule=rule, message=message)


def test_round_trip_through_disk(tmp_path):
    findings = [
        _finding(line=10),
        _finding(line=20),  # same key twice: count == 2
        _finding(rule="DET002", message="global random"),
    ]
    baseline = Baseline.from_findings(findings)
    target = tmp_path / "lint-baseline.json"
    baseline.save(target)
    assert Baseline.load(target) == baseline
    assert len(Baseline.load(target)) == 3


def test_saved_form_is_stable_json(tmp_path):
    baseline = Baseline.from_findings([_finding(), _finding(line=99)])
    target = tmp_path / "baseline.json"
    baseline.save(target)
    data = json.loads(target.read_text())
    assert data["version"] == 1
    (entry,) = data["findings"]
    assert entry == {
        "rule": "DET001",
        "path": "src/repro/x.py",
        "message": "boom",
        "count": 2,
    }
    # Two saves of the same content are byte-identical.
    second = tmp_path / "again.json"
    baseline.save(second)
    assert target.read_text() == second.read_text()


def test_filter_ignores_line_numbers():
    baseline = Baseline.from_findings([_finding(line=10)])
    assert baseline.filter([_finding(line=777)]) == []


def test_filter_respects_multiplicity():
    baseline = Baseline.from_findings([_finding(line=1)])
    fresh = [_finding(line=1), _finding(line=2)]
    kept = baseline.filter(fresh)
    assert kept == [_finding(line=2)]


def test_filter_keeps_unrelated_findings():
    baseline = Baseline.from_findings([_finding()])
    other = _finding(rule="DET004", message="os.environ read")
    assert baseline.filter([other]) == [other]


def test_empty_baseline_is_identity():
    findings = [_finding(), _finding(rule="DET002")]
    assert Baseline().filter(findings) == findings
    assert len(Baseline()) == 0


def test_unsupported_version_rejected():
    with pytest.raises(ValueError, match="version"):
        Baseline.from_json('{"version": 99, "findings": []}')
