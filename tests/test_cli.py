"""Command line interface: subcommands, config handling, exit codes."""

import pathlib
import subprocess
import sys

import numpy as np
import pytest

import vanetprop.cli as cli
from vanetprop import (
    ContentionModel,
    EmpiricalHeadway,
    ExponentialHeadway,
    NumericError,
    mean_cluster_size,
    mean_distance,
)
from vanetprop.cli import main

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


def test_analyze_rejects_unknown_sweep_name(tmp_path):
    code = main(["analyze", *EXP_ARGS, "--sweep", "seed", "1", "2", "2",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2


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
    monkeypatch.setattr(cli.analytic, "mean_distance", lambda d, m: 1.0e9)
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


def test_cdf_rejects_fading_scenario(tmp_path):
    code = main(["cdf", "--scenario", "fading", "--headway", "exponential",
                 "--rate", "0.2", "--pt", "1", "--gain", "1", "--d0", "1",
                 "--alpha", "1", "--pth", "0.05", "--ds", "1", "--max-s", "100",
                 "--trials", "100", "--out", str(tmp_path / "x.csv")])
    assert code == 2


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
    configs = pathlib.Path(__file__).resolve().parent.parent / "configs"
    for name in ("contention.cfg", "fading.cfg"):
        out = tmp_path / f"{name}.csv"
        assert main(["analyze", "--config", str(configs / name),
                     "--out", str(out)]) == 0
        _, header, rows, _ = parse(out)
        assert len(rows) == 1 and rows[0][-1] == ""


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


def test_compare_small_empirical_data_set_passes(tmp_path):
    data = tmp_path / "six.txt"
    data.write_text("2\n5\n5\n9\n14\n33\n")
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
