"""Command line interface: subcommands, config handling, exit codes."""

import argparse
import ast
import dataclasses
import json
import pathlib
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import vanetprop.cli as cli
from vanetprop import (
    ContentionModel,
    EmpiricalHeadway,
    ExponentialHeadway,
    FadingModel,
    NumericError,
    ValidationError,
    mean_cluster_size,
    mean_distance,
)
from vanetprop.cli import main

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
BENCH = CONFIGS.parent / "bench"
EXP_ARGS = ["--headway", "exponential", "--rate", "0.2",
            "--ps", "0.9", "--range", "100"]


def parse(path):
    """Split an output file into (meta, header, rows, footer)."""
    meta, rows, footer = [], [], []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            (meta if header is None else footer).append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows, footer


# ----------------------------------------------------------------- analyze

def test_analyze_single_point(tmp_path):
    out = tmp_path / "a.csv"
    assert main(["analyze", *EXP_ARGS, "--out", str(out)]) == 0
    meta, header, rows, _ = parse(out)
    assert header == ["point", "mu_D", "mean_lower", "mean_upper", "var_paper",
                      "var_renewal", "var_lower", "var_upper", "mu_N", "error"]
    assert len(rows) == 1
    row = rows[0]
    assert row[0] == "0.0"
    d = ExponentialHeadway(rate=0.2)
    m = ContentionModel(p_s=0.9, max_range=100.0)
    # repr round-trips doubles, so the file carries the full value
    assert float(row[1]) == mean_distance(d, m)
    assert float(row[8]) == mean_cluster_size(d, m)
    assert row[9] == ""
    assert "# command: analyze" in meta
    assert "# ps = 0.9" in meta


def test_analyze_sweep_rows_increase(tmp_path):
    out = tmp_path / "s.csv"
    code = main(["analyze", "--headway", "exponential", "--rate", "0.2",
                 "--range", "100", "--sweep", "ps", "0.1", "0.9", "9",
                 "--out", str(out)])
    assert code == 0
    meta, header, rows, _ = parse(out)
    assert header[0] == "ps"
    assert "# sweep = ps,0.1,0.9,9,linear" in meta
    assert len(rows) == 9
    labels = [float(r[0]) for r in rows]
    assert labels == pytest.approx(list(np.linspace(0.1, 0.9, 9)))
    means = [float(r[1]) for r in rows]
    assert all(b > a for a, b in zip(means, means[1:]))


def test_analyze_log_sweep_finds_interior_peak(tmp_path):
    out = tmp_path / "l.csv"
    code = main(["analyze", "--headway", "exponential", "--ps", "0.9",
                 "--range", "100", "--sweep", "rate", "0.01", "1.0", "30",
                 "--log-sweep", "--out", str(out)])
    assert code == 0
    meta, _, rows, _ = parse(out)
    assert "# sweep = rate,0.01,1.0,30,log" in meta
    assert len(rows) == 30
    means = [float(r[1]) for r in rows]
    k = means.index(max(means))
    assert 0 < k < 29


def test_analyze_degenerate_point_reports_error_row(tmp_path):
    out = tmp_path / "d.csv"
    code = main(["analyze", "--headway", "uniform", "--low", "0", "--high", "10",
                 "--ps", "1.0", "--range", "100", "--out", str(out)])
    assert code == 3
    text = out.read_text()
    assert "DegenerateProcessError" in text


def test_analyze_sweep_with_one_bad_point_keeps_the_rest(tmp_path):
    out = tmp_path / "m.csv"
    code = main(["analyze", "--headway", "uniform", "--low", "0", "--high", "10",
                 "--range", "100", "--sweep", "ps", "0.5", "1.0", "2",
                 "--out", str(out)])
    assert code == 3
    _, _, rows, _ = parse(out)
    assert len(rows) == 2
    assert float(rows[0][1]) == pytest.approx(5.0, rel=1e-12)
    assert "DegenerateProcessError" in out.read_text()


def test_analyze_unbounded_headway_with_certain_success_computes(tmp_path):
    out = tmp_path / "u.csv"
    code = main(["analyze", "--headway", "exponential", "--rate", "0.2",
                 "--ps", "1.0", "--range", "100", "--out", str(out)])
    assert code == 0
    _, _, rows, _ = parse(out)
    assert float(rows[0][1]) > 0.0


def test_analyze_fading_scenario(tmp_path):
    out = tmp_path / "f.csv"
    code = main(["analyze", "--scenario", "fading", "--headway", "exponential",
                 "--rate", "0.2", "--pt", "1", "--gain", "1", "--d0", "1",
                 "--alpha", "1", "--pth", "0.05", "--out", str(out)])
    assert code == 0
    _, header, rows, _ = parse(out)
    assert header == ["point", "q_hop", "mu_D", "var_paper", "var_renewal", "error"]
    assert float(rows[0][1]) == pytest.approx(0.8, rel=1e-9)
    assert float(rows[0][2]) == pytest.approx(16.0, rel=1e-9)


def test_analyze_non_finite_closed_form_is_a_numeric_error_row(tmp_path):
    # F_P ~ 1e-293: mu_D is finite, its square overflows var_renewal
    out = tmp_path / "f.csv"
    code = main(["analyze", "--scenario", "fading", "--headway", "exponential",
                 "--rate", "0.2", "--alpha", "6", "--pth", "1e-300", "--pt", "1",
                 "--gain", "1", "--d0", "1", "--out", str(out)])
    assert code == 4
    _, _, rows, _ = parse(out)
    assert rows[0][1:5] == ["", "", "", ""]
    assert rows[0][5] == "NumericError: non-finite closed form: var_renewal = inf"


def test_fading_analyze_sweep_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["analyze", "--scenario", "fading", "--headway", "lognormal",
            "--log-mean", "1.5", "--log-sd", "0.6", "--pt", "1", "--gain", "1",
            "--d0", "1", "--alpha", "2", "--pth", "0.001", "--sweep", "alpha", "1", "6", "40"]
    assert main([*argv, "--out", str(a)]) == 0
    assert main([*argv, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_analyze_rejects_unknown_sweep_name(tmp_path):
    code = main(["analyze", *EXP_ARGS, "--sweep", "seed", "1", "2", "2",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_analyze_rejects_sweeps_over_parameters_the_run_never_reads(tmp_path):
    table = tmp_path / "ps.csv"
    table.write_text("0.0,0.1\n100.0,0.9\n")
    fading = ["--scenario", "fading", "--headway", "exponential", "--rate", "0.2",
              "--pt", "1", "--gain", "1", "--d0", "1", "--alpha", "1", "--pth", "0.05"]
    with_table = ["--headway", "exponential", "--rate", "0.2", "--range", "100",
                  "--ps-table", str(table), "--load", "50"]
    unread = [
        ["--headway", "uniform", "--low", "2", "--high", "20", "--ps", "0.9",
         "--range", "100", "--sweep", "rate", "0.1", "1", "3"],
        [*fading, "--sweep", "range", "50", "150", "3"],
        [*with_table, "--sweep", "ps", "0.1", "0.9", "3"],
    ]
    for args in unread:
        out = tmp_path / "x.csv"
        assert main(["analyze", *args, "--out", str(out)]) == 2
        assert not out.exists()
    # the parameters these runs do read stay sweepable
    for args in ([*fading, "--sweep", "alpha", "1", "3", "3"],
                 [*with_table, "--sweep", "load", "0", "100", "3"]):
        out = tmp_path / "ok.csv"
        assert main(["analyze", *args, "--out", str(out)]) == 0
        _, _, rows, _ = parse(out)
        assert len({r[2] for r in rows}) == 3


def test_empirical_file_is_reread_by_each_run(tmp_path):
    data = tmp_path / "gaps.txt"
    out = tmp_path / "e.csv"
    argv = ["analyze", "--headway", "empirical", "--data", str(data),
            "--ps", "0.9", "--range", "100", "--out", str(out)]
    data.write_text("2\n5\n5\n9\n")
    assert main(argv) == 0
    first = float(parse(out)[2][0][1])
    data.write_text("20\n50\n50\n90\n")
    assert main(argv) == 0
    # every gap stays within range, so the mean distance scales with them
    assert float(parse(out)[2][0][1]) == pytest.approx(10.0 * first, rel=1e-12)


def test_analyze_stdout_when_no_out_given(capsys):
    assert main(["analyze", *EXP_ARGS]) == 0
    text = capsys.readouterr().out
    assert text.startswith("# vanetprop ")
    assert "mu_D" in text


# ---------------------------------------------------------------- simulate

def test_simulate_reruns_are_byte_identical(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    argv = ["simulate", *EXP_ARGS, "--trials", "30000", "--seed", "5"]
    assert main([*argv, "--out", str(a)]) == 0
    assert main([*argv, "--out", str(b)]) == 0
    assert main([*argv, "--workers", "4", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_simulate_output_columns(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["simulate", *EXP_ARGS, "--trials", "20000", "--out", str(out)]) == 0
    _, header, rows, _ = parse(out)
    assert header == ["trials", "mean_D", "ci95_mean_D", "var_D", "ci95_var_D",
                      "mean_N", "ci95_mean_N", "zero_fraction"]
    row = rows[0]
    assert row[0] == "20000"
    assert abs(float(row[1]) - 45.0) < 2.0
    assert 0.0 <= float(row[7]) <= 1.0


def test_simulate_ecdf_output(tmp_path):
    out = tmp_path / "s.csv"
    ecdf = tmp_path / "e.csv"
    code = main(["simulate", *EXP_ARGS, "--trials", "20000", "--ds", "1",
                 "--max-s", "300", "--out", str(out), "--ecdf-out", str(ecdf)])
    assert code == 0
    _, header, rows, _ = parse(ecdf)
    assert header == ["s", "F_D_ecdf"]
    assert len(rows) == 301
    assert rows[0][0] == "0.0"
    vals = [float(r[1]) for r in rows]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert abs(vals[0] - 0.1) < 0.02


def test_simulate_rejects_an_infinite_ecdf_grid(tmp_path, capsys):
    code = main(["simulate", *EXP_ARGS, "--trials", "100", "--ds", "1", "--max-s", "inf",
                 "--out", str(tmp_path / "s.csv"), "--ecdf-out", str(tmp_path / "e.csv")])
    assert code == 2
    assert "finite max_s" in capsys.readouterr().err
    assert not (tmp_path / "e.csv").exists()


def test_simulate_rejects_zero_trials(tmp_path):
    assert main(["simulate", *EXP_ARGS, "--trials", "0",
                 "--out", str(tmp_path / "x.csv")]) == 2


# ----------------------------------------------------------------- compare

def test_compare_contention_statuses(tmp_path):
    out = tmp_path / "c.csv"
    code = main(["compare", *EXP_ARGS, "--trials", "100000", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    _, header, rows, _ = parse(out)
    assert header[0] == "metric" and header[-1] == "status"
    status = {r[0]: r[-1] for r in rows}
    assert status["mean_D"] == "pass"
    assert status["var_D_renewal"] == "pass"
    assert status["var_D_paper"] == "info"   # printed variant, arbitrated away
    assert status["mean_N"] == "pass"
    assert "cdf_supnorm" not in status


def test_compare_with_cdf_grid(tmp_path):
    out = tmp_path / "c.csv"
    code = main(["compare", *EXP_ARGS, "--trials", "100000", "--seed", "4",
                 "--ds", "1", "--max-s", "400", "--out", str(out)])
    assert code == 0
    _, _, rows, _ = parse(out)
    status = {r[0]: r[-1] for r in rows}
    assert status["cdf_supnorm"] == "pass"


@pytest.mark.parametrize("given, missing", [("--ds", "max_s"), ("--max-s", "ds")])
def test_compare_with_half_a_cdf_grid_names_the_missing_key(tmp_path, capsys, given, missing):
    out = tmp_path / "c.csv"
    code = main(["compare", *EXP_ARGS, "--trials", "1000", given, "1", "--out", str(out)])
    assert code == 2
    assert f"missing required parameter {missing!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("given, missing", [("--ds", "max_s"), ("--max-s", "ds")])
def test_compare_fading_with_half_a_cdf_grid_names_the_missing_key(tmp_path, capsys,
                                                                   given, missing):
    out = tmp_path / "f.csv"
    code = main(["compare", "--config", str(CONFIGS / "fading.cfg"), "--trials", "1000",
                 given, "1", "--out", str(out)])
    assert code == 2
    assert f"missing required parameter {missing!r}" in capsys.readouterr().err
    assert not out.exists()


def test_compare_fading_with_a_cdf_grid_checks_the_curve(tmp_path):
    out = tmp_path / "f.csv"
    code = main(["compare", "--config", str(CONFIGS / "fading.cfg"), "--trials", "100000",
                 "--seed", "4", "--ds", "0.5", "--max-s", "200", "--out", str(out)])
    assert code == 0
    _, _, rows, _ = parse(out)
    status = {r[0]: r[-1] for r in rows}
    assert status["cdf_supnorm"] == "pass"


def test_compare_zero_success_probability(tmp_path):
    out = tmp_path / "z.csv"
    code = main(["compare", "--headway", "exponential", "--rate", "0.2",
                 "--ps", "0", "--range", "100", "--trials", "1000",
                 "--out", str(out)])
    assert code == 0
    _, _, rows, _ = parse(out)
    assert all(r[-1] in ("pass", "info") for r in rows)


def test_compare_fading(tmp_path):
    out = tmp_path / "f.csv"
    code = main(["compare", "--scenario", "fading", "--headway", "exponential",
                 "--rate", "0.2", "--pt", "1", "--gain", "1", "--d0", "1",
                 "--alpha", "1", "--pth", "0.05", "--trials", "100000",
                 "--seed", "2", "--out", str(out)])
    assert code == 0
    _, _, rows, _ = parse(out)
    status = {r[0]: r[-1] for r in rows}
    assert status["mean_D"] == "pass"
    assert status["var_D_renewal"] == "pass"
    assert status["var_D_paper"] == "info"
    assert status["mean_N"] == "pass"


def test_compare_failure_exits_five(tmp_path, monkeypatch):
    stats = cli.analytic.distance_stats
    monkeypatch.setattr(cli.analytic, "distance_stats",
                        lambda d, m: dataclasses.replace(stats(d, m), mean=1.0e9))
    out = tmp_path / "c.csv"
    code = main(["compare", *EXP_ARGS, "--trials", "20000", "--out", str(out)])
    assert code == 5
    _, _, rows, _ = parse(out)
    status = {r[0]: r[-1] for r in rows}
    assert status["mean_D"] == "fail"


def test_numeric_failure_exits_four(tmp_path, monkeypatch):
    def boom(d, m):
        raise NumericError("synthetic quadrature failure")
    monkeypatch.setattr(cli.analytic, "distance_stats", boom)
    out = tmp_path / "n.csv"
    code = main(["analyze", *EXP_ARGS, "--out", str(out)])
    assert code == 4
    assert "NumericError" in out.read_text()


# --------------------------------------------------------------------- cdf

def test_cdf_deterministic_plateaus(tmp_path):
    out = tmp_path / "c.csv"
    code = main(["cdf", "--headway", "deterministic", "--spacing", "50",
                 "--ps", "0.5", "--range", "100", "--ds", "5", "--max-s", "400",
                 "--trials", "200000", "--seed", "1", "--out", str(out)])
    assert code == 0
    _, header, rows, footer = parse(out)
    assert header == ["s", "F_D_analytic", "F_D_ecdf", "abs_diff"]
    assert len(rows) == 81
    assert float(rows[15][1]) == pytest.approx(0.75, abs=1e-9)   # s = 75
    assert float(rows[25][1]) == pytest.approx(0.875, abs=1e-9)  # s = 125
    assert len(footer) == 1 and footer[0].startswith("# sup_norm = ")
    sup = float(footer[0].split("=")[1])
    assert sup < 0.01


def test_cdf_printed_form_column_goes_negative(tmp_path):
    out = tmp_path / "p.csv"
    code = main(["cdf", "--headway", "deterministic", "--spacing", "50",
                 "--ps", "0.5", "--range", "100", "--ds", "5", "--max-s", "400",
                 "--trials", "5000", "--printed-form", "--out", str(out)])
    assert code == 0
    _, header, rows, _ = parse(out)
    assert header[-1] == "F_D_printed"
    printed = [float(r[4]) for r in rows]
    assert min(printed) < -0.4


def test_cdf_rejects_short_grid(tmp_path):
    code = main(["cdf", *EXP_ARGS, "--ds", "1", "--max-s", "50",
                 "--trials", "100", "--out", str(tmp_path / "x.csv")])
    assert code == 2


@pytest.mark.parametrize("command", ["cdf", "compare"])
def test_grid_is_checked_before_simulating(tmp_path, monkeypatch, capsys, command):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the grid check")

    monkeypatch.setattr(cli.mc, "run", no_simulation)
    out = tmp_path / "g.csv"
    code = main([command, "--config", str(CONFIGS / "contention.cfg"), "--ds", "20",
                 "--out", str(out)])
    assert code == 2
    assert "grid_step must satisfy grid_step <= max_range/10" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["cdf", "compare"])
def test_a_solver_failure_exits_four_before_simulating(tmp_path, monkeypatch, capsys,
                                                       command):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the solve")

    monkeypatch.setattr(cli.mc, "run", no_simulation)
    out = tmp_path / "n.csv"
    # rate 50 puts nearly all gap mass inside the first 1 m cell
    code = main([command, "--headway", "exponential", "--rate", "50", "--ps", "0.9",
                 "--range", "100", "--ds", "1", "--max-s", "200", "--out", str(out)])
    assert code == 4
    assert "grid_step too coarse" in capsys.readouterr().err
    assert not out.exists()


CONTENTION_CFG = ["--config", str(CONFIGS / "contention.cfg")]  # carries a CDF grid
FADING_CFG = ["--config", str(CONFIGS / "fading.cfg")]          # carries none
GRID = ["--ds", "0.5", "--max-s", "300"]


@pytest.mark.parametrize("argv, evaluations", [
    (["compare", *CONTENTION_CFG], 3),
    (["compare", *FADING_CFG, *GRID], 3),
    (["compare", *EXP_ARGS], 2),
    (["compare", *FADING_CFG], 2),
    (["cdf", *CONTENTION_CFG], 2),
    (["cdf", *FADING_CFG, *GRID], 2),
], ids=["compare-contention-grid", "compare-fading-grid", "compare-contention",
        "compare-fading", "cdf-contention", "cdf-fading"])
def test_compare_and_cdf_take_the_hop_law_once_per_consumer(tmp_path, monkeypatch,
                                                            argv, evaluations):
    # the closed forms, the curve and the simulator's degeneracy check
    calls = []
    for model in (ContentionModel, FadingModel):
        def counted(self, d, law=model.hop_law):
            calls.append(d)
            return law(self, d)
        monkeypatch.setattr(model, "hop_law", counted)
    main([*argv, "--trials", "2000", "--out", str(tmp_path / "o.csv")])
    assert len(calls) == evaluations


def test_cli_reads_no_private_name_of_another_module():
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    modules = {"analytic", "fading", "mc", "quad"}
    private = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in modules and node.attr.startswith("_")]
    private += [f"{node.module}.{alias.name}" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module in modules
                for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_cdf_with_only_zero_gaps_is_one_from_the_start(tmp_path):
    # every hop covers 0 m, so D = 0: F_D(0) = (1 - q) / (1 - p_s P(H = 0)) = 1
    out = tmp_path / "z.csv"
    code = main(["cdf", "--headway", "deterministic", "--spacing", "0", "--ps", "0.5",
                 "--range", "100", "--ds", "1", "--max-s", "200", "--trials", "1000",
                 "--out", str(out)])
    assert code == 0
    _, _, rows, footer = parse(out)
    assert {r[1] for r in rows} == {"1.0"}
    assert footer == ["# sup_norm = 0.0"]


def test_compare_refuses_a_near_certain_hop_before_simulating(tmp_path, capsys):
    # q = 1 - e^-20: about 4.9e8 hops per trial
    out = tmp_path / "q.csv"
    code = main(["compare", "--headway", "exponential", "--rate", "0.2", "--ps", "1",
                 "--range", "100", "--trials", "1000", "--out", str(out)])
    assert code == 3
    assert "expected hops per trial" in capsys.readouterr().err
    assert not out.exists()


def test_cdf_solves_the_fading_scenario(tmp_path):
    out = tmp_path / "f.csv"
    code = main(["cdf", "--config", str(CONFIGS / "fading.cfg"), "--ds", "0.1",
                 "--max-s", "300", "--trials", "200000", "--seed", "1", "--out", str(out)])
    assert code == 0
    _, header, rows, footer = parse(out)
    assert header == ["s", "F_D_analytic", "F_D_ecdf", "abs_diff"]
    assert len(rows) == 3001
    assert float(rows[0][1]) == pytest.approx(0.2, abs=1e-12)  # F_D(0) = F_P
    assert float(footer[0].split("=")[1]) < 0.01


def test_cdf_printed_form_needs_the_contention_scenario(tmp_path, capsys):
    out = tmp_path / "f.csv"
    code = main(["cdf", "--config", str(CONFIGS / "fading.cfg"), "--ds", "1",
                 "--max-s", "100", "--trials", "100", "--printed-form", "--out", str(out)])
    assert code == 2
    assert "--printed-form is the contention recursion" in capsys.readouterr().err
    assert not out.exists()


# ----------------------------------------------------- config and tables

def test_config_file_supplies_parameters(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# contention example\n"
        "scenario = contention\n"
        "headway = exponential\n"
        "rate = 0.2\n"
        "ps = 0.9\n"
        "range = 100\n"
    )
    out = tmp_path / "o.csv"
    assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
    _, _, rows, _ = parse(out)
    d = ExponentialHeadway(rate=0.2)
    assert float(rows[0][1]) == mean_distance(d, ContentionModel(0.9, 100.0))


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("headway = exponential\nrate = 0.2\nps = 0.9\nrange = 100\n")
    out = tmp_path / "o.csv"
    assert main(["analyze", "--config", str(cfg), "--ps", "0.5",
                 "--out", str(out)]) == 0
    meta, _, rows, _ = parse(out)
    assert "# ps = 0.5" in meta
    d = ExponentialHeadway(rate=0.2)
    assert float(rows[0][1]) == mean_distance(d, ContentionModel(0.5, 100.0))


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("headway = exponential\nrtae = 0.2\n")
    assert main(["analyze", "--config", str(cfg)]) == 2


def test_config_rejects_malformed_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("headway exponential\n")
    assert main(["analyze", "--config", str(cfg)]) == 2


def test_missing_config_file_is_a_validation_error(tmp_path):
    assert main(["analyze", "--config", str(tmp_path / "absent.cfg")]) == 2


def test_shipped_example_configs(tmp_path):
    for name in ("contention.cfg", "fading.cfg"):
        out = tmp_path / f"{name}.csv"
        assert main(["analyze", "--config", str(CONFIGS / name),
                     "--out", str(out)]) == 0
        _, header, rows, _ = parse(out)
        assert len(rows) == 1 and rows[0][-1] == ""


FADING_KEYS = {"pt": 1, "gain": 1, "d0": 1, "alpha": 2, "pth": 0.001}


def _route_cases(tmp_path):
    """(command, params) pairs covering every gap family, fading and ps_table."""
    gaps = tmp_path / "gaps.txt"
    gaps.write_text("2\n5\n5\n9\n14\n33\n")
    table = tmp_path / "ps.csv"
    table.write_text("0.0,0.1\n50.0,0.5\n100.0,0.9\n")
    link = {"ps": 0.9, "range": 100}
    return [
        ("analyze", {"headway": "exponential", "rate": 0.2, **link}),
        ("analyze", {"headway": "uniform", "low": 2, "high": 20, **link}),
        ("analyze", {"headway": "lognormal", "log_mean": 1.5, "log_sd": 0.6, **link}),
        ("analyze", {"headway": "deterministic", "spacing": 33.3, **link}),
        ("analyze", {"headway": "empirical", "data": gaps, **link}),
        ("analyze", {"scenario": "fading", "headway": "lognormal", "log_mean": 1.5,
                     "log_sd": 0.6, **FADING_KEYS}),
        ("analyze", {"headway": "exponential", "rate": 0.2, "range": 100,
                     "ps_table": table, "load": 25}),
        ("simulate", {"headway": "uniform", "low": 2, "high": 20, **link,
                      "trials": 3000, "seed": 4, "workers": 2}),
        ("compare", {"scenario": "fading", "headway": "exponential", "rate": 0.2,
                     **FADING_KEYS, "trials": 3000, "seed": 5}),
        ("cdf", {"headway": "empirical", "data": gaps, "ps": 0.8, "range": 100,
                 "ds": 0.5, "max_s": 200, "trials": 3000, "seed": 6}),
    ]


def test_config_file_and_flags_give_the_same_rows(tmp_path):
    for i, (command, params) in enumerate(_route_cases(tmp_path)):
        cfg = tmp_path / f"{i}.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in params.items()))
        flags = [a for k, v in params.items() for a in ("--" + k.replace("_", "-"), str(v))]
        by_cfg, by_flags = tmp_path / f"{i}c.csv", tmp_path / f"{i}f.csv"
        assert main([command, "--config", str(cfg), "--out", str(by_cfg)]) == 0
        assert main([command, *flags, "--out", str(by_flags)]) == 0
        # the metadata echo differs ('100' against '100.0'); the data must not
        assert parse(by_cfg)[1:3] == parse(by_flags)[1:3], (command, params)


# flags that are not parameters of the run, so no config key either
NOT_CONFIG_KEYS = {"help", "config", "out", "log_sweep", "ecdf_out", "printed_form"}


def test_every_config_key_is_a_flag_on_every_subcommand(tmp_path):
    top = cli._build_parser()
    sub = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    dests = {name: {a.dest for a in p._actions} for name, p in sub.choices.items()}
    assert set(dests) == {"analyze", "simulate", "compare", "cdf"}

    cfg = tmp_path / "one.cfg"

    def accepted(key):
        cfg.write_text(f"{key} = 1\n")
        try:
            return key in cli._read_config(str(cfg))
        except ValidationError:
            return False

    flags = set().union(*dests.values())
    keys = {k for k in flags | set(cli._PARAMS) | {"rtae", "command"} if accepted(k)}
    assert keys == flags - NOT_CONFIG_KEYS
    for name, names in dests.items():
        assert names - NOT_CONFIG_KEYS == (keys if name == "analyze" else keys - {"sweep"})


def test_contention_cfg_documents_every_config_key():
    lines = (CONFIGS / "contention.cfg").read_text().splitlines()
    documented = set()
    for line in lines[lines.index("# Recognized keys") + 1:]:
        if not line.startswith("#   "):
            break
        names = re.split(r"\s{2,}", line[1:].strip())[0]
        documented |= {n.strip() for n in names.split(",")}
    assert documented == set(cli._PARAMS)


def test_ps_table_interpolation(tmp_path):
    table = tmp_path / "ps.csv"
    table.write_text("# load, p_s\n0.0,0.1\n50.0,0.5\n100.0,0.9\n")
    out = tmp_path / "o.csv"
    code = main(["analyze", "--headway", "exponential", "--rate", "0.2",
                 "--range", "100", "--ps-table", str(table), "--load", "25",
                 "--out", str(out)])
    assert code == 0
    _, _, rows, _ = parse(out)
    d = ExponentialHeadway(rate=0.2)
    p_s = float(np.interp(25.0, [0.0, 50.0, 100.0], [0.1, 0.5, 0.9]))
    assert float(rows[0][1]) == mean_distance(d, ContentionModel(p_s, 100.0))


@pytest.mark.parametrize("command", [
    ["analyze", "--sweep", "load", "10", "90", "50"],
    ["analyze", "--load", "25", "--sweep", "rate", "0.1", "1", "50"],
    ["compare", "--load", "25", "--trials", "1000"],
])
def test_ps_table_is_read_once_per_command(tmp_path, monkeypatch, command):
    table = tmp_path / "ps.csv"
    table.write_text("0.0,0.1\n100.0,0.9\n")
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(str(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    code = main([*command, "--headway", "exponential", "--rate", "0.2", "--range", "100",
                 "--ps-table", str(table), "--out", str(tmp_path / "o.csv")])
    assert code == 0
    assert opened.count(str(table)) == 1


def test_ps_table_validation(tmp_path):
    bad_order = tmp_path / "a.csv"
    bad_order.write_text("50.0,0.5\n50.0,0.6\n")
    assert main(["analyze", "--headway", "exponential", "--rate", "0.2",
                 "--range", "100", "--ps-table", str(bad_order),
                 "--load", "50"]) == 2

    bad_prob = tmp_path / "b.csv"
    bad_prob.write_text("0.0,0.5\n100.0,1.5\n")
    assert main(["analyze", "--headway", "exponential", "--rate", "0.2",
                 "--range", "100", "--ps-table", str(bad_prob),
                 "--load", "50"]) == 2

    table = tmp_path / "c.csv"
    table.write_text("0.0,0.1\n100.0,0.9\n")
    assert main(["analyze", "--headway", "exponential", "--rate", "0.2",
                 "--range", "100", "--ps-table", str(table),
                 "--load", "200"]) == 2

    short = tmp_path / "d.csv"
    short.write_text("0.0,0.1\n")
    assert main(["analyze", "--headway", "exponential", "--rate", "0.2",
                 "--range", "100", "--ps-table", str(short),
                 "--load", "0"]) == 2


def test_empirical_headway_from_file(tmp_path):
    data = tmp_path / "gaps.txt"
    values = [3.0, 7.5, 7.5, 12.0, 21.0, 40.0]
    data.write_text("# measured gaps\n" + "\n".join(str(v) for v in values) + "\n")
    out = tmp_path / "o.csv"
    code = main(["analyze", "--headway", "empirical", "--data", str(data),
                 "--ps", "0.8", "--range", "100", "--out", str(out)])
    assert code == 0
    _, _, rows, _ = parse(out)
    d = EmpiricalHeadway.from_samples(values)
    assert float(rows[0][1]) == mean_distance(d, ContentionModel(0.8, 100.0))


@pytest.mark.parametrize("gaps", [(2, 5, 5, 9, 14, 33), (0, 5, 5, 9, 14, 33)],
                         ids=["six-gaps", "with-a-zero-gap"])
def test_compare_small_empirical_data_set_passes(tmp_path, gaps):
    data = tmp_path / "six.txt"
    data.write_text("".join(f"{g}\n" for g in gaps))
    out = tmp_path / "c.csv"
    code = main(["compare", "--headway", "empirical", "--data", str(data),
                 "--ps", "0.9", "--range", "100", "--ds", "0.5", "--max-s", "300",
                 "--trials", "400000", "--seed", "0", "--out", str(out)])
    assert code == 0
    _, header, rows, _ = parse(out)
    sup = next(r for r in rows if r[0] == "cdf_supnorm")
    assert sup[header.index("status")] == "pass"


def test_empirical_headway_bad_file(tmp_path):
    data = tmp_path / "gaps.txt"
    data.write_text("3.0\nnot-a-number\n")
    assert main(["analyze", "--headway", "empirical", "--data", str(data),
                 "--ps", "0.8", "--range", "100"]) == 2


def test_missing_required_parameter(tmp_path):
    # no --ps and no table
    assert main(["analyze", "--headway", "exponential", "--rate", "0.2",
                 "--range", "100"]) == 2


# ------------------------------------------------------------- entry point

def test_module_entry_point(tmp_path):
    out = tmp_path / "o.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "vanetprop.cli", "analyze", *EXP_ARGS,
         "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "mu_D" in out.read_text()


def test_bench_tracer_wraps_both_cdf_scenarios(tmp_path):
    # the benchmark's --trace 1 wraps cli, analytic and solver functions by
    # name; a traced cdf op of each scenario must still run through them
    script = textwrap.dedent(f"""
        import json, sys
        sys.path.insert(0, {str(BENCH)!r})
        from tracer import Tracer
        from vanetprop import cli
        tracer = Tracer()
        tracer.install()
        main = tracer.timed(cli.main, "cli.main")
        short = ["--trials", "2000", "--seed", "1"]
        codes = [
            main(["cdf", "--config", {str(CONFIGS / "contention.cfg")!r}, "--ds", "1",
                  "--max-s", "300", "--printed-form", *short,
                  "--out", {str(tmp_path / "c.csv")!r}]),
            main(["cdf", "--config", {str(CONFIGS / "fading.cfg")!r}, "--ds", "0.5",
                  "--max-s", "200", *short, "--out", {str(tmp_path / "f.csv")!r}]),
        ]
        spans = sorted({{span[0] for span in tracer.dump()["spans"]}})
        print(json.dumps({{"codes": codes, "spans": spans}}))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0]
    assert {"cli.main", "analytic.cdf", "quad.solve_printed_cdf"} <= set(result["spans"])
