"""The scale tier from the shell: ``repro run --backend vector`` on both
sides of ``DENSE_MODEL_LIMIT``, and the numpy gate."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import pytest

pytest.importorskip("numpy")

from repro.backends import DENSE_MODEL_LIMIT
from repro.cli import STRATEGIES, main

REPO_ROOT = Path(__file__).resolve().parents[2]
NODES = DENSE_MODEL_LIMIT + 1


def run_row(capsys, *argv: str) -> Dict[str, str]:
    """One synthetic-tier run; the printed row as ``{column: cell}``."""
    code = main(
        ["run", "--backend", "vector", "--clients", str(NODES), *argv]
    )
    assert code == 0
    header, _rule, cells = capsys.readouterr().out.splitlines()
    return dict(zip(header.split(), cells.split()))


def python(*argv: str) -> "subprocess.CompletedProcess[str]":
    return subprocess.run(
        [sys.executable, *argv],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )


def test_default_run_prints_table(capsys) -> None:
    row = run_row(capsys, "eager", "--messages", "1")
    assert row["strategy"] == "eager"
    assert float(row["delivery_pct"]) == 100.0
    assert row["failed_nodes"] == row["retries"] == "0"
    # Not a NaN column: link metrics appear only with --track-links.
    assert "top5_share_pct" not in row


def test_track_links_adds_the_structure_columns(capsys) -> None:
    row = run_row(capsys, "eager", "--messages", "1", "--track-links")
    assert float(row["top5_share_pct"]) > 0.0
    assert float(row["effective_degree"]) == pytest.approx(11.0, abs=0.1)
    assert int(row["used_links"]) > NODES


def test_workers_flag_round_trips(capsys) -> None:
    argv = ["lazy", "--messages", "2"]
    pooled = run_row(capsys, *argv, "--workers", "2")
    assert float(pooled["delivery_pct"]) == 100.0
    assert pooled == run_row(capsys, *argv)


def test_view_degree_flag(capsys) -> None:
    row = run_row(
        capsys, "flat", "--probability", "1.0", "--messages", "1",
        "--view-degree", "16",
    )
    assert float(row["delivery_pct"]) > 90.0


def test_loss_flag_engages_recovery(capsys) -> None:
    """--loss feeds a uniform Bernoulli plan through to the kernel and
    the retry counter proves the recovery machinery actually ran."""
    row = run_row(
        capsys, "ttl", "--rounds", "2", "--messages", "1", "--loss", "0.2"
    )
    assert row["failed_nodes"] == "0"
    assert int(row["retries"]) > 0
    assert float(row["delivery_pct"]) > 95.0


def test_fail_fraction_reports_failed_nodes(capsys) -> None:
    row = run_row(
        capsys, "eager", "--messages", "1", "--fail-fraction", "0.25"
    )
    assert int(row["failed_nodes"]) == round(0.25 * NODES)
    # Coverage is normalised to the alive population.
    assert float(row["delivery_pct"]) == pytest.approx(100.0, abs=0.05)


def test_loss_out_of_range_exits(capsys) -> None:
    with pytest.raises(SystemExit) as excinfo:
        run_row(capsys, "eager", "--loss", "1.5")
    assert excinfo.value.code == 2
    assert "argument --loss: must be in [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("backend", ["event", "vector"])
@pytest.mark.parametrize(
    "flag, value",
    [
        ("--loss", "1.5"),
        ("--loss", "-0.3"),
        ("--fail-fraction", "1.5"),
        ("--fail-fraction", "1.0"),
        ("--fail-fraction", "-0.5"),
    ],
)
def test_out_of_range_fault_flags_are_usage_errors(
    capsys, backend, flag, value
) -> None:
    """Below the scale tier too, on both backends: a usage error naming
    the flag -- not a dataclass traceback, and never a silently
    fault-free run."""
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "run", "eager", "--backend", backend, "--clients", "15",
                "--routers", "200", "--messages", "2", flag, value,
            ]
        )
    assert excinfo.value.code == 2
    assert f"argument {flag}: must be in [0, 1" in capsys.readouterr().err


def test_every_strategy_choice_builds_a_factory(capsys) -> None:
    for name in sorted(STRATEGIES):
        row = run_row(capsys, name, "--messages", "1")
        assert row["strategy"] == name
        assert float(row["delivery_pct"]) > 99.0


@pytest.mark.parametrize(
    "argv",
    [
        ["--view-degree", "8", "--backend", "event", "--clients", str(NODES)],
        ["--track-links", "--backend", "event", "--clients", str(NODES)],
        ["--view-degree", "8", "--backend", "event", "--clients", "24"],
        ["--track-links", "--backend", "event", "--clients", "24"],
    ],
)
def test_scale_tier_flags_are_rejected_elsewhere(capsys, argv: List[str]) -> None:
    """Off the vector backend the flags exit 2 by name at any
    population, before any model is built -- never silently ignored."""
    assert main(["run", "eager", *argv]) == 2
    assert f"{argv[0]} is only supported by the vector backend" in (
        capsys.readouterr().err
    )


def test_dense_tier_takes_view_degree(capsys) -> None:
    """Below the limit the vector backend runs partial views over the
    routed model, and tracks links there without being asked."""
    assert main(
        ["run", "eager", "--backend", "vector", "--clients", "24",
         "--messages", "2", "--view-degree", "8"]
    ) == 0
    header, _rule, cells = capsys.readouterr().out.splitlines()
    row = dict(zip(header.split(), cells.split()))
    assert float(row["delivery_pct"]) > 90.0
    assert float(row["effective_degree"]) <= 8.0


def test_both_tiers_print_the_same_columns(capsys, monkeypatch) -> None:
    """One vector path: on either side of ``DENSE_MODEL_LIMIT`` the
    command prints the same row shape (lowered here so that both sides
    stay test-sized)."""
    monkeypatch.setattr("repro.cli.DENSE_MODEL_LIMIT", 30)
    rows = []
    for clients in ("24", "40"):
        assert main(
            ["run", "radius", "--backend", "vector", "--clients", clients,
             "--messages", "2", "--track-links", "--fail-fraction", "0.25"]
        ) == 0
        header, _rule, cells = capsys.readouterr().out.splitlines()
        rows.append(dict(zip(header.split(), cells.split())))
    dense, synthetic = rows
    assert list(dense) == list(synthetic) == [
        "strategy", "latency_ms", "payload_per_msg", "delivery_pct",
        "top5_share_pct", "failed_nodes", "retries", "effective_degree",
        "used_links",
    ]
    assert (dense["failed_nodes"], synthetic["failed_nodes"]) == ("6", "10")


def test_megasim_module_is_shorthand_for_run_backend_vector() -> None:
    """The scale tier's one spelling, ``python -m repro run --backend
    vector``, in a fresh interpreter."""
    argv = [
        "ttl", "--rounds", "2", "--clients", "5000", "--messages", "1",
        "--loss", "0.05",
    ]
    spelled = python("-m", "repro", "run", "--backend", "vector", *argv)
    assert spelled.returncode == 0, spelled.stderr
    header, _rule, cells = spelled.stdout.splitlines()
    row = dict(zip(header.split(), cells.split()))
    assert (row["latency_ms"], row["payload_per_msg"], row["delivery_pct"]) == (
        "527.60", "1.05", "100.00",
    )


def test_event_backend_runs_without_numpy() -> None:
    """``--backend event`` must never import numpy (the vector extra)."""
    script = (
        "import sys; sys.modules['numpy'] = None; "
        "from repro.cli import main; "
        "sys.exit(main(['run', 'eager', '--clients', '15', "
        "'--routers', '200', '--messages', '2']))"
    )
    result = python("-c", script)
    assert result.returncode == 0, result.stderr
    assert "eager" in result.stdout


def test_import_error_names_the_extra(monkeypatch) -> None:
    """Without numpy, importing repro.megasim must point at
    ``pip install 'repro[vector]'`` instead of a bare ModuleNotFoundError."""
    saved = {
        name: module
        for name, module in sys.modules.items()
        if name == "numpy"
        or name.startswith("numpy.")
        or name == "repro.megasim"
        or name.startswith("repro.megasim.")
    }
    for name in saved:
        monkeypatch.delitem(sys.modules, name, raising=False)
    monkeypatch.setitem(sys.modules, "numpy", None)
    try:
        with pytest.raises(ImportError, match=r"repro\[vector\]"):
            importlib.import_module("repro.megasim")
    finally:
        monkeypatch.delitem(sys.modules, "numpy", raising=False)
        for name in [
            m for m in sys.modules if m.startswith("repro.megasim")
        ]:
            del sys.modules[name]
        sys.modules.update(saved)
