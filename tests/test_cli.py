"""Command line interface: subcommands, config handling, exit codes."""

import argparse
import ast
import csv
import dataclasses
import hashlib
import io
import json
import math
import pathlib
import re
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from conftest import scalar_stats

import vanetprop.cli as cli
from vanetprop import (
    ContentionModel,
    DegenerateProcessError,
    DeterministicHeadway,
    EmpiricalHeadway,
    ExponentialHeadway,
    FadingModel,
    HeadwayDistribution,
    LognormalHeadway,
    NumericError,
    UniformHeadway,
    ValidationError,
    mean_cluster_size,
    mean_distance,
)
from vanetprop import analytic, headway
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


UNIFORM_FADING = ["--scenario", "fading", "--headway", "uniform", "--pt", "1", "--gain", "1",
                  "--alpha", "1"]


@pytest.mark.parametrize("low, high, d0, pth", [
    (40.0, 44.0, 9.0, 0.05),       # a support narrower than the unit map's node spacing
    (8.139, 8.651, 7.572, 1.705),  # edges off the quadrature nodes
])
def test_analyze_fading_uniform_gaps_give_the_closed_form_q(tmp_path, low, high, d0, pth):
    out = tmp_path / "u.csv"
    code = main(["analyze", *UNIFORM_FADING, "--low", str(low), "--high", str(high),
                 "--d0", str(d0), "--pth", str(pth), "--out", str(out)])
    assert code == 0
    _, header, rows, _ = parse(out)
    k = pth / d0
    q = (math.exp(-k * low) - math.exp(-k * high)) / (k * (high - low))
    assert float(rows[0][header.index("q_hop")]) == pytest.approx(q, abs=1e-9)


def test_simulate_takes_a_narrow_uniform_support_under_fading(tmp_path):
    # q = 0.7919: about 4.8 hops per trial
    out = tmp_path / "s.csv"
    code = main(["simulate", *UNIFORM_FADING, "--low", "40", "--high", "44", "--d0", "9",
                 "--pth", "0.05", "--trials", "2000", "--seed", "1", "--out", str(out)])
    assert code == 0
    _, header, rows, _ = parse(out)
    assert float(rows[0][header.index("mean_N")]) > 0.0


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


# ------------------------------------------- a sweep row is its point's value

LOGN = ["--headway", "lognormal", "--log-mean", "1.5", "--log-sd", "0.6"]
LINK = ["--pt", "1", "--gain", "1", "--d0", "1", "--alpha", "2", "--pth", "0.001"]
CONT = ["--ps", "0.9", "--range", "100"]


def fm(alpha=2.0, pth=0.001):
    return FadingModel(1.0, 1.0, 1.0, alpha, pth)


CM = ContentionModel(0.9, 100.0)
CANONICAL_FADING = FadingModel(1.0, 1.0, 1.0, 1.0, 0.05)  # configs/fading.cfg


@pytest.mark.parametrize("argv, make", [
    pytest.param(["--scenario", "fading", *LOGN, *LINK, "--sweep", "alpha", "0.5", "6.5", "25"],
                 lambda v: (LognormalHeadway(1.5, 0.6), fm(alpha=v)), id="fading-alpha"),
    pytest.param(["--scenario", "fading", *LOGN, *LINK, "--sweep", "pth", "1e-8", "10", "30",
                  "--log-sweep"],
                 lambda v: (LognormalHeadway(1.5, 0.6), fm(pth=v)), id="fading-pth"),
    pytest.param(["--config", str(CONFIGS / "fading.cfg"), "--sweep", "rate", "0.01", "1",
                  "40", "--log-sweep"],
                 lambda v: (ExponentialHeadway(v), CANONICAL_FADING), id="fading-rate"),
    pytest.param(["--config", str(CONFIGS / "fading.cfg"), "--sweep", "rate", "0.01", "1",
                  str(analytic._CHUNK + 1)],
                 lambda v: (ExponentialHeadway(v), CANONICAL_FADING), id="fading-chunk-plus-one"),
    pytest.param(["--scenario", "fading", *LOGN, *LINK, "--sweep", "log_sd", "0.1", "3", "20"],
                 lambda v: (LognormalHeadway(1.5, v), fm()), id="fading-log-sd"),
    # the integrand overflows at the two largest log means, and their rows
    # carry the NumericError of the non-finite values
    pytest.param(["--scenario", "fading", *LOGN, *LINK, "--sweep", "log_mean", "1", "700", "4"],
                 lambda v: (LognormalHeadway(v, 0.6), fm()), id="fading-log-mean-to-700"),
    pytest.param(["--scenario", "fading", "--headway", "uniform", "--low", "2", "--high", "20",
                  *LINK, "--sweep", "high", "1", "60", "8"],
                 lambda v: (UniformHeadway(2.0, v), fm()), id="fading-uniform-high"),
    pytest.param(["--scenario", "fading", "--headway", "deterministic", "--spacing", "5",
                  *LINK, "--sweep", "spacing", "0", "60", "7"],
                 lambda v: (DeterministicHeadway(v), fm()), id="fading-spacing"),
    pytest.param(["--headway", "exponential", "--rate", "0.2", *CONT,
                  "--sweep", "rate", "1e-300", "10", "12", "--log-sweep"],
                 lambda v: (ExponentialHeadway(v), CM), id="contention-rate"),
    pytest.param([*LOGN, *CONT, "--sweep", "log_sd", "0.1", "40", "30"],
                 lambda v: (LognormalHeadway(1.5, v), CM), id="contention-log-sd"),
    pytest.param(["--headway", "uniform", "--low", "2", "--high", "20", *CONT,
                  "--sweep", "high", "1", "150", "9"],
                 lambda v: (UniformHeadway(2.0, v), CM), id="contention-uniform-high"),
    pytest.param(["--headway", "deterministic", "--spacing", "5", *CONT,
                  "--sweep", "spacing", "0", "150", "7"],
                 lambda v: (DeterministicHeadway(v), CM), id="contention-spacing"),
    # typed errors: validation first (exit 2), degeneracy first (exit 3), and a
    # fixed model or headway that fails at every point of the other's sweep
    pytest.param(["--headway", "uniform", "--low", "0", "--high", "10", "--range", "100",
                  "--sweep", "ps", "-0.5", "1.5", "5"],
                 lambda v: (UniformHeadway(0.0, 10.0), ContentionModel(v, 100.0)),
                 id="validation-then-degenerate"),
    pytest.param(["--headway", "uniform", "--low", "0", "--high", "10", "--range", "100",
                  "--sweep", "ps", "1", "1.5", "2"],
                 lambda v: (UniformHeadway(0.0, 10.0), ContentionModel(v, 100.0)),
                 id="degenerate-then-validation"),
    # one chunk: validation, degeneracy, finite rows, validation (exit 2)
    pytest.param(["--headway", "uniform", "--low", "0", "--high", "10", "--range", "100",
                  "--sweep", "ps", "1.5", "-0.5", "9"],
                 lambda v: (UniformHeadway(0.0, 10.0), ContentionModel(v, 100.0)),
                 id="validation-degenerate-finite-validation"),
    pytest.param(["--headway", "exponential", "--rate", "0.2", "--ps", "1.5", "--range", "100",
                  "--sweep", "rate", "0.1", "1", "3"],
                 lambda v: (ExponentialHeadway(v), ContentionModel(1.5, 100.0)),
                 id="fixed-model-fails"),
    pytest.param(["--scenario", "fading", "--headway", "uniform", "--low", "5", "--high", "2",
                  *LINK, "--sweep", "alpha", "1", "6", "3"],
                 lambda v: (UniformHeadway(5.0, 2.0), fm(alpha=v)), id="fixed-headway-fails"),
    # three chunks and a part, with typed errors in more than one chunk: the
    # variance overflows down to log_sd 18.9 (exit 4), in the first two
    # chunks, and log_sd <= 0 fails to build (exit 2), in the last two
    pytest.param([*LOGN, *CONT, "--sweep", "log_sd", "40", "-5",
                  str(3 * cli._CSV_CHUNK_ROWS + 7)],
                 lambda v: (LognormalHeadway(1.5, v), CM), id="contention-chunks"),
    # alpha outside [1, 6] fails to build, in the first and the last two chunks
    pytest.param(["--scenario", "fading", *LOGN, *LINK, "--sweep", "alpha", "0.5", "7.5",
                  str(3 * cli._CSV_CHUNK_ROWS + 20)],
                 lambda v: (LognormalHeadway(1.5, 0.6), fm(alpha=v)), id="fading-chunks"),
])
def test_every_sweep_row_is_the_library_value_at_its_point(tmp_path, monkeypatch, argv, make):
    # the sweep builds only what a point varies, evaluates the points a chunk
    # at a time and shares the fading points' first quadrature level; each
    # row must still be, to the byte, the closed forms that Python floats give
    # at that point one at a time (`scalar_stats`), or the typed error they raise
    params = cli._resolve(cli._build_parser().parse_args(["analyze", *argv]))
    name, values = cli._sweep_values(params)
    scenario = cli._SCENARIOS[params["scenario"]]
    sizes = []  # points per call of the sweep
    sweep_columns = cli.analytic.sweep_columns

    def sweep(points):
        sizes.append(len(points))
        return sweep_columns(points)

    monkeypatch.setattr(cli.analytic, "sweep_columns", sweep)
    out = tmp_path / "s.csv"
    code = main(["analyze", *argv, "--out", str(out)])
    assert max(sizes, default=0) <= cli._CSV_CHUNK_ROWS
    expected, codes = [], []
    for v in values:
        try:
            d, model = make(v)
            st = scalar_stats(d, model)
        except (ValidationError, DegenerateProcessError, NumericError) as exc:
            expected.append([repr(v), *[""] * len(scenario.columns),
                             f"{type(exc).__name__}: {exc}"])
            codes.append(cli._error_code(exc))
            continue
        cells = [getattr(st, field) for field in scenario.columns.values()]
        assert all(math.isfinite(c) for c in cells)
        expected.append([repr(v), *map(repr, cells), ""])
    body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(body))
    assert rows[0] == [name, *scenario.columns, "error"]
    assert rows[1:] == expected
    assert code == (codes[0] if codes else 0)


@pytest.mark.parametrize("log", [False, True])
def test_a_sweep_holds_its_points_as_doubles(log):
    # the points held take 8 bytes each, and read back as the floats of the
    # numpy grid; a list of float objects would take 32
    n = 100_000
    argv = ["analyze", *LOGN, *CONT, "--sweep", "log_sd", "0.1", "2", str(n),
            *(["--log-sweep"] if log else [])]
    params = cli._resolve(cli._build_parser().parse_args(argv))
    tracemalloc.start()
    try:
        name, values = cli._sweep_values(params)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 10 * n
    grid = (np.geomspace if log else np.linspace)(0.1, 2.0, n).tolist()
    assert name == "log_sd" and list(values) == grid
    assert {type(v) for v in values[:3 * cli._CSV_CHUNK_ROWS]} == {float}


@pytest.mark.skipif(not pathlib.Path("/proc/self/status").exists(),
                    reason="reads the peak resident set (VmHWM) from /proc")
def test_a_long_sweep_takes_no_more_memory_than_a_short_one(tmp_path):
    # points are built, evaluated and written a chunk at a time, so the peak
    # does not grow with the sweep; the records of all 40 000 points would
    # take about 29 MiB
    script = textwrap.dedent("""
        import sys
        from vanetprop import cli
        assert cli.main(sys.argv[1:]) == 0
        with open("/proc/self/status", encoding="ascii") as fh:
            print(next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:")))
    """)
    peak_kib = []
    for steps in (400, 40_000):
        proc = subprocess.run(
            [sys.executable, "-c", script, "analyze", *LOGN, *CONT,
             "--sweep", "log_sd", "0.1", "2", str(steps), "--out", str(tmp_path / "s.csv")],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        peak_kib.append(int(proc.stdout))
    assert peak_kib[1] - peak_kib[0] < 8 * 1024


def test_a_parameter_that_does_not_type_fails_every_point(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scenario = fading\nheadway = exponential\nrate = 0.2\n"
                   "pt = 1\ngain = 1\nd0 = 1\nalpha = 1\npth = 0.o5\n")
    out = tmp_path / "s.csv"
    assert main(["analyze", "--config", str(cfg), "--sweep", "rate", "0.1", "1", "3",
                 "--out", str(out)]) == 2
    body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert [r[-1] for r in csv.reader(body[1:])] == [
        "ValidationError: parameter 'pth' must be a number, got '0.o5'"] * 3


def test_a_parameter_of_the_swept_object_that_does_not_type_fails_every_point(tmp_path):
    # the swept object's other parameters are read in builder order at every
    # point: a swept load outside the table fails before a range that does not type
    table, cfg, out = tmp_path / "t.csv", tmp_path / "bad.cfg", tmp_path / "s.csv"

    def errors():  # the error cells, which csv.writer quoted: they hold a comma
        body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        return [r[-1] for r in csv.reader(body[1:])]

    table.write_text("0,0.95\n10,0.9\n20,0.5\n")
    cfg.write_text(f"headway = exponential\nrate = 0.2\nps_table = {table}\nrange = 1o0\n")
    assert main(["analyze", "--config", str(cfg), "--sweep", "load", "-5", "25", "3",
                 "--out", str(out)]) == 2
    assert errors() == [
        "ValidationError: load -5.0 outside table range [0.0, 20.0]",
        "ValidationError: parameter 'range' must be a number, got '1o0'",
        "ValidationError: load 25.0 outside table range [0.0, 20.0]"]
    cfg.write_text("scenario = fading\nheadway = exponential\nrate = 0.2\n"
                   "pt = 1\ngain = 1\nd0 = 1\nalpha = 1\npth = 0.o5\n")
    assert main(["analyze", "--config", str(cfg), "--sweep", "alpha", "1", "6", "2",
                 "--out", str(out)]) == 2
    assert errors() == [
        "ValidationError: parameter 'pth' must be a number, got '0.o5'"] * 2


# a lognormal law whose moments overflow a float: an error row (exit 4) in
# analyze; simulate needs only truncated moments, taken in logs
HEAVY = [["--log-mean", "1.5", "--log-sd", "20"], ["--log-mean", "700", "--log-sd", "3"]]


@pytest.mark.parametrize("law, message", [
    (HEAVY[0], "NumericError: lognormal variance = exp(803.0) overflows a float"),
    (HEAVY[1], "NumericError: lognormal variance = exp(1417.9998765825803) overflows a float"),
])
def test_analyze_heavy_lognormal_point_is_a_numeric_error_row(tmp_path, law, message):
    out = tmp_path / "h.csv"
    assert main(["analyze", "--headway", "lognormal", *law, *CONT, "--out", str(out)]) == 4
    _, _, rows, _ = parse(out)
    assert rows[0][-1] == message


@pytest.mark.parametrize("argv, errors", [
    # E[D] ~ 1e154: its square overflows from log_mean 353 on
    (["--headway", "lognormal", "--log-mean", "350", "--log-sd", "1e-10", "--ps", "0.9",
      "--range", "1e154", "--sweep", "log_mean", "352", "354.5", "6"],
     ["", ""] + ["NumericError: non-finite closed form: var_paper = nan, var_renewal = inf, "
                 "var_lower = nan, var_upper = nan"] * 4),
    # from L ~ 1e200, L^2 overflows in the upper bound's L^2 (1 - F_H(L)), times 0
    (["--headway", "exponential", "--rate", "0.2", "--ps", "0.9",
      "--sweep", "range", "100", "1e300", "7", "--log-sweep"],
     [""] * 4 + ["NumericError: non-finite closed form: var_upper = nan"] * 3),
    # from high ~ 1.3e154, the uniform variance (high - low)^2 / 12 overflows
    (["--headway", "uniform", "--low", "0", "--high", "1e10", "--ps", "0.9", "--range", "100",
      "--sweep", "high", "1e10", "1e300", "3", "--log-sweep"],
     ["", "NumericError: uniform variance: 1e+155 ** 2 overflows a float",
      "NumericError: uniform variance: 1e+300 ** 2 overflows a float"]),
], ids=["mean-square", "range-square", "uniform-variance"])
def test_an_overflowing_closed_form_is_a_numeric_error_row(tmp_path, argv, errors):
    # the chunk's closed forms are numpy columns: an overflow raises no
    # RuntimeWarning (the suite makes one an error), and the row names the
    # cells by their Python reprs
    out = tmp_path / "o.csv"
    assert main(["analyze", *argv, "--out", str(out)]) == 4
    _, _, rows, _ = parse(out)
    body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert [r[-1] for r in csv.reader(body[1:])] == errors
    assert all(math.isfinite(float(c)) for r in rows[:errors.count("")] for c in r[:-1])


def test_a_contention_sweep_reads_f_h_of_l_once_per_point(tmp_path, monkeypatch):
    # q = p_s F_H(L) and the printed forms share one F_H(L)
    calls = []
    cdf = LognormalHeadway.cdf
    monkeypatch.setattr(LognormalHeadway, "cdf", lambda self, x: calls.append(x) or cdf(self, x))
    assert main(["analyze", *LOGN, *CONT, "--sweep", "log_sd", "0.1", "2.0", "2000",
                 "--out", str(tmp_path / "s.csv")]) == 0
    assert calls == [100.0] * 2000


# a family closed form that overflows a float raises NumericError where it
# overflows, never an untyped OverflowError or ZeroDivisionError
FAMILY_OVERFLOWS = [
    (["--headway", "uniform", "--low", "0", "--high", "1e300", "--range", "100"],
     "uniform variance: 1e+300 ** 2 overflows a float"),
    (["--headway", "uniform", "--low", "1e200", "--high", "2e200", "--range", "1e250"],
     "uniform truncated moment: 2e+200 ** 2 overflows a float"),
    # the series' moments are finite (E[D] is 4.5e99); the family's variance is not
    (["--headway", "exponential", "--rate", "1e-300", "--range", "1e200"],
     "variance 1 / rate^2 at rate 1e-300 overflows a float"),
    (["--headway", "exponential", "--rate", "1e-160", "--range", "1e159"],
     "exponential truncated moment of order 2: rate 1e-160 * 1e+159 ** 3 overflows a float"),
    (["--headway", "exponential", "--rate", "1e-200", "--range", "1e250"],
     "exponential truncated moment of order 2: 2 / rate^2 at rate 1e-200 overflows a float"),
    # rate^2 is subnormal, so 2 / rate^2 is inf without a ZeroDivisionError
    (["--headway", "exponential", "--rate", "1e-158", "--range", "1e200"],
     "exponential truncated moment of order 2: 2 / rate^2 at rate 1e-158 overflows a float"),
    (["--headway", "deterministic", "--spacing", "1e200", "--range", "1e250"],
     "deterministic truncated moment: 1e+200 ** 2 overflows a float"),
    # rate^2 leaves the doubles; at 1.7e308 rate * x leaves them in the cdf too
    (["--headway", "exponential", "--rate", "1e155", "--range", "100"],
     "exponential truncated moment of order 2: 1e+155 ** 2 overflows a float"),
    (["--headway", "exponential", "--rate", "1.7e308", "--range", "100"],
     "exponential truncated moment of order 2: 1.7e+308 ** 2 overflows a float"),
]


@pytest.mark.parametrize("argv, message", FAMILY_OVERFLOWS,
                         ids=["uniform-variance", "uniform-moment", "exponential-series",
                              "exponential-series-product", "exponential-rate-squared",
                              "exponential-rate-squared-subnormal", "deterministic-moment",
                              "exponential-large-rate-squared", "exponential-largest-rate"])
def test_a_family_closed_form_that_overflows_exits_four(tmp_path, capsys, argv, message):
    # analyze writes the error in its row and nothing to stderr; compare, which
    # takes the closed forms before it simulates, prints one error line
    out = tmp_path / "o.csv"
    assert main(["analyze", *argv, "--ps", "0.9", "--out", str(out)]) == 4
    assert [r[-1] for r in parse(out)[2]] == ["NumericError: " + message]
    assert capsys.readouterr().err == ""
    assert main(["compare", *argv, "--ps", "0.9", "--trials", "1000",
                 "--out", str(tmp_path / "c.csv")]) == 4
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_contention_sweep_takes_the_moments_unchecked(tmp_path, monkeypatch):
    # the model checked L when it was built, so each point's hop law calls the
    # family's closed form twice and never the wrapper that checks its arguments
    checked, closed = [], []
    wrapper, moment = HeadwayDistribution.truncated_moment, LognormalHeadway._truncated_moment
    monkeypatch.setattr(HeadwayDistribution, "truncated_moment",
                        lambda self, k, u: checked.append((k, u)) or wrapper(self, k, u))
    monkeypatch.setattr(LognormalHeadway, "_truncated_moment",
                        lambda self, k, u: closed.append((k, u)) or moment(self, k, u))
    assert main(["analyze", *LOGN, *CONT, "--sweep", "log_sd", "0.1", "2.0", "2000",
                 "--out", str(tmp_path / "s.csv")]) == 0
    assert checked == []
    assert closed == [(1, 100.0), (2, 100.0)] * 2000


# the analyze ops of the benchmark's analyze_sweep workload (bench/workloads.py,
# copied here) and the sha256 of each output: a change of a byte is a change of
# what the program prints
BENCH_SWEEPS = [
    (["--scenario", "fading", *LOGN, *LINK, "--sweep", "alpha", "1", "6", "150"],
     "125f9389a36b59928b362c2a55409e2080f92c05a0d8539fefa1edd2b0fbc404"),
    (["--config", str(CONFIGS / "fading.cfg"), "--sweep", "rate", "0.01", "1", "150",
      "--log-sweep"], "08edc55fe2ef4a84b65e265d7cb686902faa475e74909aeddc23d3437a6be6b2"),
    ([*LOGN, *CONT, "--sweep", "log_sd", "0.1", "2.0", "2000"],
     "fbf58a6e08cf57951bc5073e8d8212ac3b7ff80abdc283948037355711110926"),
]


@pytest.mark.parametrize("argv, sha256", BENCH_SWEEPS,
                         ids=["fading_alpha", "fading_rate", "contention_log_sd"])
def test_the_benchmark_sweeps_keep_their_bytes(tmp_path, argv, sha256):
    out = tmp_path / "s.csv"
    assert main(["analyze", *argv, "--seed", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_analyze_heavy_lognormal_sweep_keeps_its_finite_rows(tmp_path):
    out = tmp_path / "h.csv"
    assert main(["analyze", *LOGN, *CONT, "--sweep", "log_sd", "1", "40", "4",
                 "--out", str(out)]) == 4
    _, _, rows, _ = parse(out)
    assert [r[0] for r in rows] == ["1.0", "14.0", "27.0", "40.0"]
    assert all(math.isfinite(float(c)) for r in rows[:2] for c in r[1:-1])
    assert [r[-1] for r in rows] == [
        "", "", "NumericError: lognormal variance = exp(1461.0) overflows a float",
        "NumericError: lognormal mean = exp(801.5) overflows a float"]


@pytest.mark.parametrize("law", HEAVY)
def test_simulate_takes_a_heavy_lognormal_law(tmp_path, law):
    out = tmp_path / "h.csv"
    assert main(["simulate", "--headway", "lognormal", *law, *CONT, "--trials", "2000",
                 "--seed", "3", "--out", str(out)]) == 0
    _, header, rows, _ = parse(out)
    assert all(math.isfinite(float(c)) for c in rows[0])


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


EXP_CFG = "headway = exponential\nrate = 0.2\nps = 0.9\nrange = 100\n"


@pytest.mark.parametrize("argv, config, message", [
    (["--sweep", "rate", "1", "inf", "3"], "", "bad sweep bounds in 'rate,1,inf,3,linear'"),
    # finite bounds, a span past the doubles
    ([], "sweep = range,-1e308,1e308,3\n", "bad sweep bounds in 'range,-1e308,1e308,3,linear'"),
    (["--sweep", "rate", "1", "nan", "3", "--log-sweep"], "",
     "bad sweep bounds in 'rate,1,nan,3,log'"),
    # 2**62 doubles: numpy refuses the size before it allocates anything
    (["--sweep", "rate", "0.1", "1", str(2 ** 62)], "",
     f"a sweep of {2 ** 62} steps is too long to hold"),
    (["--sweep", "rate", "0.1", "1", str(2 ** 62), "--log-sweep"], "",
     f"a sweep of {2 ** 62} steps is too long to hold"),
    (["--sweep", "rate", "0.1", "x", "3"], "", "bad sweep bounds in 'rate,0.1,x,3,linear'"),
    (["--sweep", "rate", "0.1", "1", "0"], "", "sweep steps must be >= 1, got 0"),
    (["--sweep", "rate", "0.1", "1", "3.0"], "", "sweep steps must be an integer, got '3.0'"),
    (["--sweep", "rate", "0", "1", "3", "--log-sweep"], "", "log sweep needs positive bounds"),
    ([], "sweep = rate,0.1,1\n",
     "sweep must be 'name,from,to,steps[,log]', got 'rate,0.1,1,linear'"),
    ([], "scenario = rayleigh\n",
     "scenario must be one of ['contention', 'fading'], got 'rayleigh'"),
], ids=["infinite-bound", "overflowing-span", "nan-log-bound", "too-long", "too-long-log",
        "bounds", "steps", "non-integer-steps", "log-bounds", "short-config-sweep", "unknown-scenario"])
def test_a_bad_sweep_or_scenario_is_refused_before_any_output(tmp_path, capsys, argv, config,
                                                              message):
    cfg, out = tmp_path / "run.cfg", tmp_path / "x.csv"
    cfg.write_text(EXP_CFG + config)
    assert main(["analyze", "--config", str(cfg), *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("row, message", [
    ("0,0.9,1", "expected 'load,p_s', got '0,0.9,1'"),
    ("0,high", "non-numeric row '0,high'"),
], ids=["three-fields", "non-numeric"])
def test_a_bad_ps_table_row_is_refused(tmp_path, capsys, row, message):
    table = tmp_path / "ps.csv"
    table.write_text(f"# load,p_s\n{row}\n100,0.5\n")
    assert main(["analyze", "--headway", "exponential", "--rate", "0.2", "--range", "100",
                 "--ps-table", str(table), "--load", "50",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == f"error: {table}:2: {message}\n"


# each text input: (file name, its text, the analyze flags that read the file at a path)
TEXT_INPUTS = {
    "config": ("run.cfg", EXP_CFG, lambda path: ["--config", path]),
    "data": ("gaps.txt", "# gaps (m)\n2.5\n3.0\n4.1\n",
             lambda path: ["--headway", "empirical", "--data", path, *CONT]),
    "ps-table": ("ps.csv", "0,0.95\n100,0.5\n",
                 lambda path: ["--headway", "exponential", "--rate", "0.2", "--range", "100",
                               "--ps-table", path, "--load", "50"]),
}


@pytest.mark.parametrize("kind", list(TEXT_INPUTS))
def test_a_text_input_saved_with_a_byte_order_mark_reads_as_the_plain_file(tmp_path, kind):
    name, text, flags = TEXT_INPUTS[kind]
    path, out = tmp_path / name, tmp_path / "o.csv"
    outputs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(bom + text.encode())
        assert main(["analyze", *flags(str(path)), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("kind", list(TEXT_INPUTS))
def test_a_text_input_that_is_not_utf8_is_a_validation_error(tmp_path, capsys, kind):
    # a Latin-1 'é' in a comment: the reader decodes the file before it reads a line
    name, text, flags = TEXT_INPUTS[kind]
    path, out = tmp_path / name, tmp_path / "o.csv"
    path.write_bytes(b"# caf\xe9\n" + text.encode())
    assert main(["analyze", *flags(str(path)), "--out", str(out)]) == 2
    message = f"{path}: not UTF-8 text"
    if kind == "data":  # the headway law does not build: its point is an error row
        assert [r[-1] for r in parse(out)[2]] == [f"ValidationError: {message}"]
        assert capsys.readouterr().err == ""
    else:  # refused before the output opens
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_an_unknown_headway_in_a_config_is_an_error_row(tmp_path):
    cfg, out = tmp_path / "run.cfg", tmp_path / "o.csv"
    cfg.write_text("headway = gamma\nps = 0.9\nrange = 100\n")
    assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 2
    rows = list(csv.reader(line for line in out.read_text().splitlines()
                           if not line.startswith("#")))
    assert rows[1:] == [["0.0", *[""] * 8, "ValidationError: headway must be one of "
                         f"{sorted(cli._HEADWAYS)}, got 'gamma'"]]


def test_a_config_sweep_writes_the_rows_of_the_same_flag_sweep(tmp_path):
    cfg, by_config, by_flag = tmp_path / "run.cfg", tmp_path / "c.csv", tmp_path / "f.csv"
    cfg.write_text(EXP_CFG + "sweep = rate,0.1,1,3\n")
    assert main(["analyze", "--config", str(cfg), "--out", str(by_config)]) == 0
    assert main(["analyze", *EXP_ARGS, "--sweep", "rate", "0.1", "1", "3",
                 "--out", str(by_flag)]) == 0
    assert "# sweep = rate,0.1,1,3,linear" in parse(by_config)[0]
    assert parse(by_config)[1:] == parse(by_flag)[1:]


def test_log_sweep_turns_a_config_sweep_geometric(tmp_path):
    cfg, out = tmp_path / "run.cfg", tmp_path / "o.csv"
    cfg.write_text(EXP_CFG + "sweep = rate,0.1,1,3,linear\n")
    assert main(["analyze", "--config", str(cfg), "--log-sweep", "--out", str(out)]) == 0
    meta, _, rows, _ = parse(out)
    assert "# sweep = rate,0.1,1,3,log" in meta
    assert [float(r[0]) for r in rows] == np.geomspace(0.1, 1.0, 3).tolist()


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


def _float_rows_among_others() -> list:
    # rows that are not blocks go through csv.writer, whatever they hold: a
    # numpy scalar ("%r" would print np.float64(...)), an int, a None among
    # the floats or text, between rows of floats that end in None
    rows = [(0.01 * i, -0.0, 1e16, None) for i in range(2 * cli._CSV_CHUNK_ROWS + 3)]
    rows[5] = (5.0, np.float64(0.1), math.inf, None)
    rows[6] = (6.0, 3, 1e-05, None)
    rows[7] = (7.0, None, 0.1 + 0.2, None)
    rows[cli._CSV_CHUNK_ROWS] = (8.0, None, None, 'NumericError: a, "b"\nc')
    rows[cli._CSV_CHUNK_ROWS + 1] = [9.0, None, None, "ValidationError: plain"]
    rows[-1] = (10.0, None, None, "DegenerateProcessError: d, e")
    return rows


def _blocks_among_rows() -> list:
    # a numeric block stands for its rows; the float rows before it, and a
    # csv.writer row after it, keep their places
    n = cli._CSV_CHUNK_ROWS - 2
    block = [np.arange(n) * 0.1, np.full(n, -0.0), np.ones(n), np.arange(n)]
    return [(0.5, 1e-300, 2.0, None), (0.75, 1.0, 3.0, None), block,
            [1.0, None, None, "NumericError: x, y"], [c[:3] for c in block],
            (2.0, 1e16, 0.1, None)]


@pytest.mark.parametrize("rows", [
    [list(np.array([[0.0, -0.0, 0.1, 1e-300], [math.inf, -math.inf, math.nan, 2.5e17]]).T)],
    [list(np.array([[0, -3, 7, 2 ** 40]]).T)],
    [[1.5, None, "DegenerateProcessError: a, b", 'say "hi"'], [math.inf, 3, None, "plain"]],
    _float_rows_among_others(),
    _blocks_among_rows(),
], ids=["floats", "ints", "text_and_none", "float_rows_among_others", "blocks_among_rows"])
def test_tables_are_written_byte_for_byte_as_csv_writer_writes_them(tmp_path, rows):
    header = ["s", "F, quoted", "x", "y"]
    out = tmp_path / "t.csv"
    cli._emit(str(out), ["# meta"], header, rows, footer=lambda: "# end")
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        if isinstance(row[0], np.ndarray):
            w.writerows(zip(*[c.tolist() for c in row]))
        else:
            w.writerow(row)
    assert out.read_bytes() == ("# meta\n" + buf.getvalue() + "# end\n").encode()


def test_a_numeric_table_streams_the_bytes_csv_writer_writes(tmp_path, capsys):
    # two chunks and a part, sent as three blocks, with the floats whose
    # repr is least plain
    n = 2 * cli._CSV_CHUNK_ROWS + 3
    rows = np.column_stack((np.arange(n) * 0.01, np.linspace(-1.0, 1.0, n), np.zeros(n)))
    rows[:4, 2] = [-0.0, math.inf, 1e-05, 1e16]
    rows[-1] = [-0.0, -math.inf, 1e16]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["s", "F", "x"])
    w.writerows(rows.tolist())
    want = ("# meta\n" + buf.getvalue() + "# end\n").encode()
    out = tmp_path / "t.csv"
    blocks = [list(b.T) for b in np.array_split(rows, 3)]
    cli._emit(str(out), ["# meta"], ["s", "F", "x"], iter(blocks), footer=lambda: "# end")
    assert out.read_bytes() == want
    cli._emit(None, ["# meta"], ["s", "F", "x"], iter(blocks), footer=lambda: "# end")
    assert capsys.readouterr().out.encode() == want


def test_simulate_rejects_an_infinite_ecdf_grid(tmp_path, capsys):
    code = main(["simulate", *EXP_ARGS, "--trials", "100", "--ds", "1", "--max-s", "inf",
                 "--out", str(tmp_path / "s.csv"), "--ecdf-out", str(tmp_path / "e.csv")])
    assert code == 2
    assert "finite --max-s" in capsys.readouterr().err
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


def test_compare_passes_a_correct_curve_at_few_trials(tmp_path):
    # at 2000 trials the ECDF's own noise exceeds 0.01; the gate widens to the DKW band
    out = tmp_path / "c.csv"
    code = main(["compare", *CONTENTION_CFG, "--trials", "2000", "--out", str(out)])
    assert code == 0
    _, _, rows, _ = parse(out)
    row = next(r for r in rows if r[0] == "cdf_supnorm")
    assert float(row[4]) > 0.01  # a fixed 0.01 gate would fail it
    assert row[-1] == "pass"


def test_numeric_failure_exits_four(tmp_path, monkeypatch):
    def boom(m, d):
        raise NumericError("synthetic quadrature failure")
    monkeypatch.setattr(cli.analytic.ContentionModel, "hop_law", boom)
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


def test_a_cdf_table_written_in_blocks_is_the_whole_table(tmp_path):
    # 801 grid rows: three blocks and a part. Every cell must be the whole
    # curves' value at its row, the grid j * ds, and the footer the largest
    # abs_diff of all the blocks, here not one of the last block's
    out = tmp_path / "c.csv"
    argv = ["cdf", *EXP_ARGS, "--ds", "0.5", "--max-s", "400", "--trials", "20000",
            "--seed", "3", "--printed-form", "--out", str(out)]
    assert main(argv) == 0
    cfg = cli._sim_config(cli._resolve(cli._build_parser().parse_args(argv)), ecdf=True)
    d, m = cfg.headway, cfg.model
    F = cli.analytic.cdf(d, m, *cfg.ecdf_grid).values
    E = cli.mc.run(cfg).ecdf.values
    P = cli.solve_printed_cdf(d, m.p_s, m.max_range, *cfg.ecdf_grid)
    diff = np.abs(F - E)
    assert F.size == 801 and np.argmax(diff) < 3 * cli._CSV_CHUNK_ROWS
    _, _, rows, footer = parse(out)
    want = np.column_stack((np.arange(F.size) * 0.5, F, E, diff, P))
    assert rows == [[repr(c) for c in row] for row in want.tolist()]
    assert footer == [f"# sup_norm = {float(np.max(diff))!r}"]


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
    assert "--ds must satisfy --ds <= --range/10" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, grid, message", [
    ("cdf", ["--ds", "0", "--max-s", "300"], "0 < --ds <= --max-s"),
    ("cdf", ["--ds", "1", "--max-s", "inf"], "with a finite --max-s, got --ds=1.0, --max-s=inf"),
    ("simulate", ["--ds", "0", "--max-s", "300"], "0 < --ds <= --max-s"),
    ("compare", ["--ds", "1", "--max-s", "50"], "--max-s must be >= --range, got 50.0"),
], ids=["cdf-ds-0", "cdf-max-s-inf", "simulate-ds-0", "compare-max-s-below-range"])
def test_a_grid_error_names_the_flags_that_set_the_grid(tmp_path, capsys, command, grid,
                                                         message):
    # the library names the grid_step, max_s and max_range these flags set
    out = tmp_path / "g.csv"
    ecdf = ["--ecdf-out", str(tmp_path / "e.csv")] if command == "simulate" else []
    code = main([command, *EXP_ARGS, "--trials", "100", *grid, *ecdf, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err
    assert not any(name in err for name in ("grid_step", "max_s", "max_range"))
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


@pytest.mark.parametrize("law", [
    ["--headway", "exponential", "--rate", "50", "--ds", "1"],
    ["--headway", "lognormal", "--log-mean", "1.5", "--log-sd", "0.001", "--ds", "0.5"],
], ids=["exponential50", "lognormal0.001"])
@pytest.mark.parametrize("command", ["cdf", "compare"])
def test_a_fading_solver_failure_exits_four_before_simulating(tmp_path, monkeypatch, capsys,
                                                              command, law):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the solve")

    monkeypatch.setattr(cli.mc, "run", no_simulation)
    out = tmp_path / "n.csv"
    # each law's mass sits within a fraction of one cell
    code = main([command, "--config", str(CONFIGS / "fading.cfg"), *law, "--max-s", "200",
                 "--out", str(out)])
    assert code == 4
    assert "grid_step too coarse" in capsys.readouterr().err
    assert not out.exists()


CONTENTION_CFG = ["--config", str(CONFIGS / "contention.cfg")]  # carries a CDF grid
FADING_CFG = ["--config", str(CONFIGS / "fading.cfg")]          # carries none
GRID = ["--ds", "0.5", "--max-s", "300"]


@pytest.mark.parametrize("argv, evaluations", [
    (["compare", *CONTENTION_CFG], 2),
    (["compare", *FADING_CFG, *GRID], 2),
    (["compare", *EXP_ARGS], 1),
    (["compare", *FADING_CFG], 1),
    (["cdf", *CONTENTION_CFG], 1),
    (["cdf", *FADING_CFG, *GRID], 1),
], ids=["compare-contention-grid", "compare-fading-grid", "compare-contention",
        "compare-fading", "cdf-contention", "cdf-fading"])
def test_compare_and_cdf_take_the_hop_law_once_per_consumer(tmp_path, monkeypatch,
                                                            argv, evaluations):
    # the closed forms and the curve; the simulator reads no hop law
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


def test_printed_form_of_only_zero_gaps_is_a_typed_singular_error(tmp_path, capsys):
    # the printed recursion carries weight 1 on the atom at 0, so its first
    # implicit step has no equation to solve; the corrected curve solves
    out = tmp_path / "z.csv"
    code = main(["cdf", "--headway", "deterministic", "--spacing", "0", "--ps", "0.5",
                 "--range", "100", "--ds", "1", "--max-s", "200", "--trials", "1000",
                 "--printed-form", "--out", str(out)])
    assert code == 4
    err = capsys.readouterr().err
    assert "printed CDF recursion is singular" in err
    assert "weight 1.0 " in err
    assert "np.float64" not in err
    assert not out.exists()


def test_compare_refuses_a_near_certain_hop_before_simulating(tmp_path, capsys):
    # q = 1 - e^-20: about 4.9e8 hops per trial. The closed forms are finite,
    # so the simulator's hop budget refuses, before any row is written
    out = tmp_path / "q.csv"
    code = main(["compare", "--headway", "exponential", "--rate", "0.2", "--ps", "1",
                 "--range", "100", "--trials", "1000", "--out", str(out)])
    assert code == 3
    assert ("block 0 closed 0 of 1000 trials in 10000000 hops drawn, its budget of "
            "10000 hops per trial") in capsys.readouterr().err
    assert not out.exists()


def test_simulate_refusal_names_the_failure_probability_it_saw(tmp_path, capsys):
    # p_s = 1 and every gap within range: 1 - q = 1 - p_s F_H(L) = 0, so no
    # trial closes before the block has spent its hop budget
    out = tmp_path / "s.csv"
    code = main(["simulate", "--headway", "uniform", "--low", "0", "--high", "10",
                 "--ps", "1", "--range", "100", "--trials", "1000", "--out", str(out)])
    assert code == 3
    assert ("block 0 closed 0 of 1000 trials in 10000000 hops drawn, its budget of "
            "10000 hops per trial: trials would not terminate") in capsys.readouterr().err
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

    monkeypatch.setattr(headway, "open", counting_open, raising=False)  # the shared reader's
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
