"""CLI contract: exit codes, formats, baseline workflow."""

from __future__ import annotations

import json

from repro.lint.cli import main

BAD = "import time\nx = time.time()\n"
CLEAN = "def f(sim):\n    return sim.now\n"


def _tree(tmp_path, source=BAD):
    pkg = tmp_path / "src" / "repro" / "sim"
    pkg.mkdir(parents=True)
    target = pkg / "mod.py"
    target.write_text(source)
    return target


def test_clean_tree_exits_zero(tmp_path, capsys):
    target = _tree(tmp_path, CLEAN)
    assert main([str(target), "--root", str(tmp_path)]) == 0
    assert capsys.readouterr().out == ""


def test_findings_exit_one_with_grep_friendly_lines(tmp_path, capsys):
    target = _tree(tmp_path)
    assert main([str(target), "--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "src/repro/sim/mod.py:2:4: DET001" in out
    assert "1 finding" in out


def test_json_format(tmp_path, capsys):
    target = _tree(tmp_path)
    assert main([str(target), "--root", str(tmp_path), "--format", "json"]) == 1
    (entry,) = json.loads(capsys.readouterr().out)
    assert entry["rule"] == "DET001"
    assert entry["path"] == "src/repro/sim/mod.py"
    assert entry["severity"] == "error"


def test_missing_path_exits_two(tmp_path, capsys):
    assert main([str(tmp_path / "nope"), "--root", str(tmp_path)]) == 2
    assert "no such path" in capsys.readouterr().err


def test_unknown_rule_exits_two(tmp_path, capsys):
    target = _tree(tmp_path)
    assert (
        main([str(target), "--root", str(tmp_path), "--select", "DET042"]) == 2
    )
    assert "DET042" in capsys.readouterr().err


def test_select_limits_rules(tmp_path):
    target = _tree(tmp_path)
    assert (
        main([str(target), "--root", str(tmp_path), "--select", "DET002"]) == 0
    )


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET001", "DET002", "DET003", "DET004", "DET005"):
        assert rule_id in out


def test_write_then_enforce_baseline(tmp_path, capsys):
    target = _tree(tmp_path)
    baseline = tmp_path / "baseline.json"
    common = [str(target), "--root", str(tmp_path), "--baseline", str(baseline)]

    assert main(common + ["--write-baseline"]) == 0
    assert "wrote 1 grandfathered" in capsys.readouterr().out

    # Grandfathered finding no longer blocks...
    assert main(common) == 0

    # ...but a second occurrence of the same pattern does.
    target.write_text(BAD + "y = time.time()\n")
    assert main(common) == 1
    out = capsys.readouterr().out
    assert out.count("DET001") == 1


def test_missing_baseline_file_is_empty(tmp_path):
    target = _tree(tmp_path)
    absent = tmp_path / "never-written.json"
    assert (
        main([str(target), "--root", str(tmp_path), "--baseline", str(absent)])
        == 1
    )


def test_corrupt_baseline_exits_two(tmp_path, capsys):
    target = _tree(tmp_path)
    corrupt = tmp_path / "baseline.json"
    corrupt.write_text('{"version": 41}')
    assert (
        main([str(target), "--root", str(tmp_path), "--baseline", str(corrupt)])
        == 2
    )
    assert "cannot load baseline" in capsys.readouterr().err
