"""CLI tests (in-process: the CLI is plain functions over argv)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def test_topology_command(capsys):
    assert main(["topology", "--routers", "250", "--clients", "15", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "mean hop distance" in out
    assert "mean end-to-end latency" in out


def test_run_command_eager(capsys):
    code = main([
        "run", "eager", "--clients", "15", "--routers", "200",
        "--messages", "8", "--seed", "4",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "latency_ms" in out
    assert "eager" in out


def test_run_command_ttl_with_rounds(capsys):
    code = main([
        "run", "ttl", "--rounds", "2", "--clients", "15", "--routers", "200",
        "--messages", "8",
    ])
    assert code == 0
    assert "ttl" in capsys.readouterr().out


def test_figure_command(capsys):
    code = main(["figure", "5.1", "--clients", "15", "--routers", "200"])
    assert code == 0
    out = capsys.readouterr().out
    assert "measured" in out and "paper" in out


def test_unknown_strategy_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "bogus"])


def test_command_required():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_all_figure_keys_parse():
    parser = build_parser()
    for key in ("5.1", "4", "5a", "5b", "5c", "6", "5.4"):
        args = parser.parse_args(["figure", key])
        assert args.figure == key


def test_scale_overrides_parse():
    parser = build_parser()
    args = parser.parse_args(
        ["run", "flat", "--probability", "0.3", "--scale", "full",
         "--clients", "12", "--messages", "5", "--seed", "9"]
    )
    assert args.probability == 0.3
    assert args.scale == "full"
    assert args.clients == 12


def test_workers_and_replications_parse():
    parser = build_parser()
    args = parser.parse_args(
        ["figure", "4", "--workers", "4", "--replications", "8"]
    )
    assert args.workers == 4
    assert args.replications == 8
    args = parser.parse_args(["run", "eager"])
    assert args.workers == 1
    assert args.replications == 1


def test_run_replicated_reports_intervals(capsys):
    code = main([
        "run", "eager", "--clients", "12", "--routers", "150",
        "--messages", "6", "--seed", "4", "--replications", "3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "±" in out


def test_figure4_replicated_sweep_byte_identical_across_workers(capsys):
    """Acceptance: an 8-replication figure-4 sweep through 4 workers
    prints byte-identical aggregated results to the serial run."""
    argv_tail = [
        "figure", "4", "--clients", "12", "--routers", "150",
        "--messages", "6", "--seed", "3", "--replications", "8",
    ]
    assert main(argv_tail + ["--workers", "1"]) == 0
    serial_out = capsys.readouterr().out
    assert main(argv_tail + ["--workers", "4"]) == 0
    parallel_out = capsys.readouterr().out
    assert serial_out.encode() == parallel_out.encode()
    assert "hw" in serial_out  # interval columns present


@pytest.mark.parametrize("table", ["5.1", "5.4"])
def test_replications_rejected_on_single_run_tables(table, capsys):
    code = main([
        "figure", table, "--clients", "12", "--routers", "150",
        "--replications", "4",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--replications is only supported by the sweep figures" in captured.err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--workers", "-3"),
        ("--replications", "0"),
        ("--replications", "-2"),
        ("--clients", "0"),
        ("--clients", "1"),
        ("--routers", "0"),
        ("--messages", "0"),
    ],
)
@pytest.mark.parametrize("command", [["figure", "4"], ["run", "eager"]])
def test_out_of_range_sizes_exit_2_naming_the_flag(command, flag, value, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(command + [flag, value])
    assert exit_info.value.code == 2
    assert f"argument {flag}: must be >= " in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--clients", "0"), ("--clients", "1"), ("--clients", "-5"), ("--routers", "0")],
)
def test_topology_out_of_range_sizes_exit_2_naming_the_flag(flag, value, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["topology", flag, value])
    assert exit_info.value.code == 2
    assert f"argument {flag}: must be >= " in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, field",
    [
        (["topology", "--routers", "10"], "router_count=10"),
        (["run", "eager", "--routers", "10"], "router_count=10"),
        (["figure", "4", "--routers", "10"], "router_count=10"),
        (["figure", "5.1", "--routers", "100", "--clients", "12"],
         "router_count=100"),
        (["topology", "--routers", "200", "--clients", "500"], "client_count=500"),
        (["run", "radius", "--backend", "vector", "--clients", "1000"],
         "client_count=1000"),
        # A crash plan that rounds to the whole population leaves no
        # sender: refused by name on both backends and on both tiers.
        (["run", "eager", "--clients", "3", "--messages", "1",
          "--fail-fraction", "0.9"], "fraction=0.9 silences all 3 nodes"),
        (["run", "eager", "--backend", "vector", "--clients", "3",
          "--messages", "1", "--fail-fraction", "0.9"],
         "fraction=0.9 silences all 3 nodes"),
        (["run", "eager", "--backend", "vector", "--clients", "5000",
          "--messages", "1", "--fail-fraction", "0.9999"],
         "fraction=0.9999 silences all 5000 nodes"),
        # A sweep point's crash plan is checked before the pool starts:
        # Fig. 5b's 80 % cell leaves no live node of two.
        (["figure", "5b", "--clients", "2"], "fraction=0.8 silences all 2 nodes"),
    ],
)
def test_rejected_parameters_are_one_line_usage_errors(argv, field, capsys):
    """Sizes that parse but that parameter/spec construction rejects end
    in one ``repro: error:`` line naming the field, not in a traceback."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("repro: error: ") and field in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "backend",
    [[], ["--backend", "vector"], ["--backend", "vector", "--clients", "5000"]],
    ids=["event", "vector-dense", "vector-synthetic"],
)
@pytest.mark.parametrize(
    "argv, field",
    [
        (["run", "flat", "--probability", "1.5"], "probability"),
        (["run", "ttl", "--rounds", "-1"], "eager_rounds"),
    ],
)
def test_bad_strategy_parameters_are_one_line_usage_errors(
    argv, field, backend, capsys
):
    """A strategy parameter the factory rejects is a usage error on every
    backend, raised before any model is built."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv + backend)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("repro: error: ") and field in captured.err
    assert captured.err.count("\n") == 1
