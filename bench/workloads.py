"""The benchmark's workloads: seeded inputs, the CLI invocations, output checks.

A workload is a fixed list of `vanetprop.cli.main(argv)` invocations
("ops"). Every op writes its CSV to a file so the benchmark can check it
and hash it; every op gets `--seed <seed>` from the benchmark's seed.

Why these three (see also BENCHMARK.json):

- sim_compare: the Monte Carlo simulator does over 90% of the work. It
  covers both channel kernels, three sampling families, ECDF binning on
  (ops 1, 3, 5) and off (op 2), and the `workers` thread pool.
- analyze_sweep: the simulator is bypassed. The work is the scalar GK15
  quadrature reached through `fading`, cheap contention closed forms and
  per-point CLI overhead. A simulator change must read "no change" here.
- cdf_fine: the O(n*K) Volterra march and CSV formatting at the default
  `workers=1`. A pool change must read "no change" here.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

# ROADMAP item 3: the Volterra solver convolves this small atomic data
# set against a histogram density, so the CDF check fails (sup-norm
# ~0.02 against the 0.01 gate) and `compare` exits 5. The op stays in
# the workload and is counted as failed; see `check_op`.
SIX_GAPS = (2, 5, 5, 9, 14, 33)
KNOWN_DEFECT = "cdf_supnorm fails on a small empirical data set (ROADMAP item 3)"


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]  # file names written into the pass directory
    known_defect: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    work: int  # units of work in one pass, for the throughput figure
    work_metric: str  # end-to-end throughput name: work / wall_s
    work_unit: str


def write_inputs(seed: int, directory: str) -> dict[str, str]:
    """The seeded gap files the ops read. The program sees only these files."""
    rng = np.random.default_rng(seed)
    gaps = rng.lognormal(1.5, 0.6, 5000)
    paths = {"gaps5000": os.path.join(directory, "gaps5000.txt"),
             "six": os.path.join(directory, "six.txt")}
    with open(paths["gaps5000"], "w", encoding="utf-8") as fh:
        fh.write("".join(f"{g!r}\n" for g in gaps.tolist()))
    with open(paths["six"], "w", encoding="utf-8") as fh:
        fh.write("".join(f"{g}\n" for g in SIX_GAPS))
    return paths


LOGNORMAL = ("--headway", "lognormal", "--log-mean", "1.5", "--log-sd", "0.6")
CONTENTION = ("--ps", "0.9", "--range", "100")


def build(name: str, inputs: dict[str, str]) -> Workload:
    """The workload `name`, reading the files that `write_inputs` made."""
    w2 = ("--workers", "2")
    if name == "sim_compare":
        ops = (
            Op("contention_cfg", ("compare", "--config", "configs/contention.cfg", *w2),
               ("out.csv",)),
            Op("fading_cfg", ("compare", "--config", "configs/fading.cfg", *w2),
               ("out.csv",)),
            Op("empirical_5000", ("compare", "--headway", "empirical",
                                  "--data", inputs["gaps5000"], *CONTENTION,
                                  "--trials", "1000000", "--ds", "0.1",
                                  "--max-s", "500", *w2), ("out.csv",)),
            Op("empirical_six", ("compare", "--headway", "empirical",
                                 "--data", inputs["six"], *CONTENTION,
                                 "--trials", "400000", "--ds", "0.5",
                                 "--max-s", "300", *w2), ("out.csv",),
               known_defect=KNOWN_DEFECT),
            Op("simulate_lognormal", ("simulate", *LOGNORMAL, *CONTENTION,
                                      "--trials", "1000000", "--ds", "0.1",
                                      "--max-s", "500", "--ecdf-out", "{ecdf}", *w2),
               ("out.csv", "ecdf.csv")),
        )
        return Workload(name, ops, 4_400_000, "trials_per_s", "trials/s")
    if name == "analyze_sweep":
        ops = (
            Op("fading_alpha", ("analyze", "--scenario", "fading", *LOGNORMAL,
                                "--pt", "1", "--gain", "1", "--d0", "1", "--alpha", "2",
                                "--pth", "0.001", "--sweep", "alpha", "1", "6", "150"),
               ("out.csv",)),
            Op("fading_rate", ("analyze", "--config", "configs/fading.cfg",
                               "--sweep", "rate", "0.01", "1", "150", "--log-sweep"),
               ("out.csv",)),
            Op("contention_log_sd", ("analyze", *LOGNORMAL, *CONTENTION,
                                     "--sweep", "log_sd", "0.1", "2.0", "2000"),
               ("out.csv",)),
        )
        return Workload(name, ops, 2300, "points_per_s", "points/s")
    if name == "cdf_fine":
        ops = (
            Op("contention_printed", ("cdf", "--config", "configs/contention.cfg",
                                      "--ds", "0.01", "--trials", "200000",
                                      "--printed-form"), ("out.csv",)),
            Op("uniform", ("cdf", "--headway", "uniform", "--low", "2", "--high", "20",
                           *CONTENTION, "--ds", "0.02", "--max-s", "500",
                           "--trials", "200000"), ("out.csv",)),
        )
        # renewal + printed solves: 50 001 + 50 001 + 25 001 grid points
        return Workload(name, ops, 125_003, "grid_points_per_s", "points/s")
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("sim_compare", "analyze_sweep", "cdf_fine")


def op_argv(op: Op, seed: int, out_dir: str) -> list[str]:
    """The argv one op runs with, its outputs placed in out_dir."""
    argv = [a.replace("{ecdf}", os.path.join(out_dir, "ecdf.csv")) for a in op.argv]
    return [*argv, "--seed", str(seed), "--out", os.path.join(out_dir, "out.csv")]


def _read_csv(path: str) -> tuple[list[str], list[list[str]], list[str]]:
    """(header, rows, '#' lines) of one CLI output file."""
    comments, body = [], []
    with open(path, encoding="utf-8", newline="") as fh:
        for line in fh:
            (comments if line.startswith("#") else body).append(line)
    reader = csv.reader(body)
    header = next(reader)
    return header, list(reader), comments


def _column(header, rows, name) -> list[str]:
    i = header.index(name)
    return [r[i] for r in rows]


def _check_compare(code: int, path: str, known_defect: str) -> tuple[list[str], bool]:
    """(problems, matches_known_defect) for one compare output."""
    header, rows, _ = _read_csv(path)
    failing = [r[0] for r in rows if r[header.index("status")] == "fail"]
    problems = [f"row {m} reads fail" for m in failing]
    if code != 0:
        problems.append(f"exit {code}")
    known = bool(known_defect) and code == 5 and failing == ["cdf_supnorm"]
    return problems, known


def _check_simulate(code: int, path: str, expected_mean: float) -> list[str]:
    if code != 0:
        return [f"exit {code}"]
    header, rows, _ = _read_csv(path)
    mean = float(_column(header, rows, "mean_D")[0])
    ci = float(_column(header, rows, "ci95_mean_D")[0])
    if not abs(mean - expected_mean) <= 4.0 * ci:
        return [f"mean_D {mean!r} is not within 4*{ci!r} of {expected_mean!r}"]
    return []


def _check_analyze(code: int, path: str) -> list[str]:
    problems = [] if code == 0 else [f"exit {code}"]
    header, rows, _ = _read_csv(path)
    errors = [e for e in _column(header, rows, "error") if e]
    if errors:
        problems.append(f"{len(errors)} error cells, first: {errors[0]}")
    bad = [m for m in _column(header, rows, "mu_D") if not (m and math.isfinite(float(m)))]
    if bad:
        problems.append(f"{len(bad)} non-finite mu_D cells")
    return problems


def _check_cdf(code: int, path: str) -> list[str]:
    if code != 0:
        return [f"exit {code}"]
    header, rows, comments = _read_csv(path)
    f = np.array(_column(header, rows, "F_D_analytic"), dtype=float)
    problems = []
    if not (np.all(f >= 0.0) and np.all(f <= 1.0)):
        problems.append("F_D_analytic leaves [0, 1]")
    if np.any(np.diff(f) < 0.0):
        problems.append("F_D_analytic decreases")
    footer = [c for c in comments if c.startswith("# sup_norm")]
    sup = float(footer[0].split("=")[1]) if footer else math.inf
    if not sup < 0.01:
        problems.append(f"sup_norm {sup!r} is not below 0.01")
    return problems


def check_op(op: Op, code: int | None, out_dir: str,
             expected_mean: float) -> tuple[list[str], bool]:
    """(problems, matches_known_defect) for one op's exit code and outputs.

    An op fails when the list of problems is not empty. A failure that is
    exactly the op's documented known defect is still a failure; the flag
    only tells the caller the failure was the expected one.
    """
    if code is None:
        return ["raised an exception"], False
    missing = [o for o in op.outputs if not os.path.exists(os.path.join(out_dir, o))]
    if missing:
        return [f"missing output {', '.join(missing)} (exit {code})"], False
    path = os.path.join(out_dir, "out.csv")
    command = op.argv[0]
    if command == "compare":
        return _check_compare(code, path, op.known_defect)
    if command == "simulate":
        return _check_simulate(code, path, expected_mean), False
    if command == "analyze":
        return _check_analyze(code, path), False
    return _check_cdf(code, path), False


def expected_simulate_mean() -> float:
    """vanetprop's closed-form E[D] for the simulate op, from outside the pass."""
    from vanetprop import ContentionModel, LognormalHeadway, mean_distance

    return mean_distance(LognormalHeadway(log_mean=1.5, log_sd=0.6),
                         ContentionModel(p_s=0.9, max_range=100.0))
