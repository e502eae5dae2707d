"""Command line interface.

Subcommands: analyze (closed forms over an optional sweep), simulate
(Monte Carlo), compare (closed forms vs simulation with pass/fail
arbitration), cdf (distance CDF curve vs simulated ECDF, either scenario).
compare and cdf evaluate the analytic side before they simulate.

Output is CSV, preceded by '#' metadata lines that echo the resolved run
parameters (never execution details like worker count, so reruns are
byte-identical). Exit codes: 0 ok, 2 validation error, 3 degenerate
process, 4 numeric failure, 5 comparison failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import operator
import sys
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import __version__, analytic, fading, mc
from .analytic import solve_printed_cdf
from .errors import DegenerateProcessError, NumericError, ValidationError
from .headway import (
    DeterministicHeadway,
    ExponentialHeadway,
    LognormalHeadway,
    UniformHeadway,
    load_headway_file,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3
EXIT_NUMERIC = 4
EXIT_COMPARE = 5

# rows of a table built and formatted at a time (an `analyze` chunk, a block
# of a CDF table): about 50 KiB of `analyze` text, where 4096 rows (the whole
# of a 2000-point sweep) added 1 MiB of peak RSS
_CSV_CHUNK_ROWS = 256

# gap family -> (constructor, its parameters in argument order)
_HEADWAYS = {
    "exponential": (ExponentialHeadway, ("rate",)),
    "uniform": (UniformHeadway, ("low", "high")),
    "lognormal": (LognormalHeadway, ("log_mean", "log_sd")),
    "deterministic": (DeterministicHeadway, ("spacing",)),
    "empirical": (load_headway_file, ("data",)),
}


class _Scenario(NamedTuple):
    model: type            # channel model class
    link: tuple[str, ...]  # its parameters, in argument order
    columns: dict[str, str]  # `analyze` column -> the stats record field behind it
    stats: Callable        # (headway, model) -> every closed form at one point
    sweep: Callable        # [(headway, model), ...] -> each point's stats or typed error


def _each_point(stats: Callable, points: list) -> list:
    """stats at each (headway, model) point, or the typed error it raises there."""
    out = []
    for d, model in points:
        try:
            out.append(stats(d, model))
        except (ValidationError, DegenerateProcessError, NumericError) as exc:
            out.append(exc)
    return out


_SCENARIOS = {
    "contention": _Scenario(
        analytic.ContentionModel, ("ps", "range"),
        {"mu_D": "mean", "mean_lower": "mean_lower", "mean_upper": "mean_upper",
         "var_paper": "var_paper", "var_renewal": "var_renewal",
         "var_lower": "var_lower", "var_upper": "var_upper", "mu_N": "cluster_size"},
        lambda d, model: analytic.distance_stats(d, model),
        lambda points: _each_point(analytic.distance_stats, points)),
    "fading": _Scenario(
        fading.FadingModel, ("pt", "gain", "d0", "alpha", "pth"),
        {"q_hop": "q_hop", "mu_D": "mean", "var_paper": "var_paper",
         "var_renewal": "var_renewal"},
        lambda d, model: fading.fading_stats(model, d),
        lambda points: fading.sweep_stats([(model, d) for d, model in points])),
}

# config key -> keywords of its --key-name flag. A config file accepts
# exactly these keys; its values stay strings until _get reads them.
_PARAMS = {
    "seed": {"type": int},
    "trials": {"type": int},
    "workers": {"type": int,
                "help": "forked simulation worker processes, each claiming blocks of "
                        "8192 trials one at a time; results do not depend on it. They "
                        "live as long as the process and serve its later runs while "
                        "the count and the headway and model classes allow; a failed "
                        "run or the exit kills them, and a library class "
                        "monkeypatched after the fork is not seen by them"},
    "scenario": {"choices": list(_SCENARIOS)},
    "headway": {"choices": sorted(_HEADWAYS)},
    "rate": {"type": float},
    "low": {"type": float},
    "high": {"type": float},
    "log_mean": {"type": float},
    "log_sd": {"type": float},
    "spacing": {"type": float},
    "data": {"type": str, "help": "empirical headway sample file"},
    "ps": {"type": float},
    "range": {"type": float, "help": "contention max range L (m)"},
    "ps_table": {"type": str, "help": "CSV of load,p_s pairs; interpolated at --load"},
    "load": {"type": float},
    "pt": {"type": float},
    "gain": {"type": float},
    "d0": {"type": float},
    "alpha": {"type": float},
    "pth": {"type": float},
    "ds": {"type": float, "help": "CDF grid step (m)"},
    "max_s": {"type": float, "help": "CDF grid end (m)"},
    "sweep": {"nargs": 4, "metavar": ("NAME", "FROM", "TO", "STEPS")},  # analyze only
}


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _PARAMS:
                raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = value.strip()
    return out


def _get(params: dict, key: str):
    """params[key] as its flag's type; an empty value counts as missing."""
    v = params.get(key)
    if v is None or v == "":
        raise ValidationError(f"missing required parameter {key!r}")
    kind = _PARAMS[key]["type"]
    try:
        return kind(v)
    except (TypeError, ValueError):
        what = "an integer" if kind is int else "a number"
        raise ValidationError(f"parameter {key!r} must be {what}, got {v!r}") from None


def _ps_table(params: dict) -> Callable[[float], float] | None:
    """load -> p_s from the run's ps_table file, read and checked once; None without one."""
    if "load" not in _link_keys(params):
        return None
    path = params["ps_table"]
    xs, ys = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 2:
                raise ValidationError(f"{path}:{lineno}: expected 'load,p_s', got {line!r}")
            try:
                x, y = float(parts[0]), float(parts[1])
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: non-numeric row {line!r}") from None
            if not (0.0 <= y <= 1.0):
                raise ValidationError(f"{path}:{lineno}: p_s {y!r} outside [0, 1]")
            xs.append(x)
            ys.append(y)
    if len(xs) < 2:
        raise ValidationError(f"{path}: need at least 2 rows, found {len(xs)}")
    if not np.all(np.diff(xs) > 0):
        raise ValidationError(f"{path}: first column must be strictly increasing")

    def p_s(load: float) -> float:
        if load < xs[0] or load > xs[-1]:
            raise ValidationError(f"load {load!r} outside table range [{xs[0]!r}, {xs[-1]!r}]")
        return float(np.interp(load, xs, ys))

    return p_s


def _headway_keys(params: dict) -> tuple[str, ...]:
    return _HEADWAYS.get(params.get("headway"), (None, ()))[1]


def _link_keys(params: dict) -> tuple[str, ...]:
    """The scenario's link parameters as read: with a ps_table, load stands for ps."""
    keys = _SCENARIOS[params["scenario"]].link
    return tuple("load" if k == "ps" and params.get("ps_table") else k for k in keys)


def _build_headway(params: dict):
    family = params.get("headway")
    if family not in _HEADWAYS:
        raise ValidationError(f"headway must be one of {sorted(_HEADWAYS)}, got {family!r}")
    make, keys = _HEADWAYS[family]
    return make(*(_get(params, k) for k in keys))


def _build_model(params: dict, table: Callable[[float], float] | None):
    """The scenario's channel model; with a ps_table, p_s is `table` (from _ps_table) at load."""
    args = (table(_get(params, k)) if k == "load" else _get(params, k)
            for k in _link_keys(params))
    return _SCENARIOS[params["scenario"]].model(*args)


def _read_params(params: dict) -> set[str]:
    """The numeric parameters the resolved scenario and headway family read."""
    keys = {*_link_keys(params), *_headway_keys(params)}
    return {k for k in keys if _PARAMS[k]["type"] is float}


def _sweep_values(params: dict):
    """(name, values) or None. Spec: 'name,from,to,steps[,log]'.

    values is a memoryview of the float64 points, which gives each as a
    float when read: 8 bytes a point, where a list of floats takes 32, so a
    long sweep holds little beside the chunk being written.

    Only a parameter the run reads can be swept: any other would print
    identical rows.
    """
    spec = params.get("sweep")
    if not spec:
        return None
    parts = [p.strip() for p in spec.split(",")]  # _resolve joined it into a string
    log = False
    if parts and parts[-1] in ("log", "linear"):
        log = parts.pop() == "log"
    if len(parts) != 4:
        raise ValidationError(f"sweep must be 'name,from,to,steps[,log]', got {spec!r}")
    name = parts[0]
    readable = _read_params(params)
    if name not in readable:
        raise ValidationError(
            f"cannot sweep {name!r}: this scenario and headway read only {sorted(readable)}"
        )
    try:
        lo, hi = float(parts[1]), float(parts[2])
        steps = int(parts[3])
    except ValueError:
        raise ValidationError(f"bad sweep bounds in {spec!r}") from None
    if steps < 1:
        raise ValidationError(f"sweep steps must be >= 1, got {steps}")
    if log:
        if lo <= 0 or hi <= 0:
            raise ValidationError("log sweep needs positive bounds")
        values = np.geomspace(lo, hi, steps)
    else:
        values = np.linspace(lo, hi, steps)
    return name, memoryview(values)


def _meta_lines(command: str, params: dict) -> list[str]:
    # workers and output paths are execution details, not part of the run
    # spec; leaving them out keeps reruns byte-identical across pool sizes
    skip = {"workers", "out", "ecdf_out"}
    lines = [f"# vanetprop {__version__}", f"# command: {command}"]
    lines += [f"# {key} = {params[key]}" for key in sorted(params) if key not in skip]
    return lines


def _emit(out_path, meta: list[str], header: list[str], rows: Iterable,
          footer: Callable[[], str] | None = None) -> None:
    """Write meta lines, header and rows, then the line footer() gives.

    rows may be a generator: its items are rows, or blocks that stand for a
    run of numeric rows, given as their columns (1-D arrays of one length).
    Each is formatted and written in batches of about _CSV_CHUNK_ROWS rows
    as it comes, so that a long table's text is never held whole. footer
    is called once every row is written, so it can report on what the rows
    held.

    Every row has the bytes csv.writer gives it: floats as their repr, so
    that parsing the file back recovers them exactly, and None as an empty
    cell. Numbers need no quoting, so the rows of a block, and each list row
    of Python floats that ends in None (an `analyze` row without an error),
    go through one "%r,...,%r" format per row instead, at less cost. Every
    other row (text, ints, numpy scalars, whose repr is not a float's) goes
    through csv.writer, for its quoting.
    """
    with (open(out_path, "w", encoding="utf-8", newline="") if out_path
          else contextlib.nullcontext(sys.stdout)) as fh:
        for line in meta:
            fh.write(line + "\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        batch: list[str] = []
        for row in rows:
            if isinstance(row[0], np.ndarray):
                fmt = ",".join(["%r"] * len(row)) + "\n"
                batch += [fmt % r for r in zip(*[c.tolist() for c in row])]
                floats = True
            else:
                cells = tuple(row[:-1])
                floats = {*map(type, cells)} == {float} and row[-1] is None
                if floats:
                    batch.append(("%r," * len(cells) + "\n") % cells)
            if not floats or len(batch) >= _CSV_CHUNK_ROWS:
                fh.write("".join(batch))
                batch.clear()
            if not floats:
                w.writerow(row)
        fh.write("".join(batch))
        if footer is not None:
            fh.write(footer() + "\n")


def _grid_blocks(step: float, n: int):
    """(rows, s) for each block of _CSV_CHUNK_ROWS rows of an n-point grid:
    the slice of the grid's rows and their points s_j = j * step."""
    for lo in range(0, n, _CSV_CHUNK_ROWS):
        rows = slice(lo, min(lo + _CSV_CHUNK_ROWS, n))
        yield rows, np.arange(rows.start, rows.stop) * step


def _error_code(exc: Exception) -> int:
    if isinstance(exc, DegenerateProcessError):
        return EXIT_DEGENERATE
    if isinstance(exc, NumericError):
        return EXIT_NUMERIC
    return EXIT_VALIDATION


def cmd_analyze(params: dict) -> int:
    """Write the closed forms at the point, or at each point of the sweep, one
    row per point, and return the exit code of the first error row (0 if none).

    The points are built, evaluated (`scenario.sweep`), formatted and written
    _CSV_CHUNK_ROWS at a time, so the memory a sweep takes does not grow with
    its length. A point rebuilds only the object the swept parameter belongs
    to; the other one is built once and shared by every chunk.
    """
    name, values = _sweep_values(params) or ("point", [None])
    scenario = _SCENARIOS[params["scenario"]]
    table = _ps_table(params)
    # each parameter typed once; one that does not type stays as given, so
    # that every point raises its error again, in the order the builders read
    typed = dict(params)
    for key in _read_params(params):
        with contextlib.suppress(ValidationError):
            typed[key] = _get(params, key)
    new_headway = name in _headway_keys(params)
    new_model = name in _link_keys(params)
    cells_of = operator.attrgetter(*scenario.columns.values())
    code = EXIT_OK

    def rows():
        nonlocal code
        d = model = None
        for lo in range(0, len(values), _CSV_CHUNK_ROWS):
            chunk = values[lo:lo + _CSV_CHUNK_ROWS]
            points = []  # per value: (headway, model), or the typed error building them raised
            for v in chunk:
                point = typed if v is None else {**typed, name: v}
                try:
                    if d is None or new_headway:
                        d = _build_headway(point)
                    if model is None or new_model:
                        model = _build_model(point, table)
                    points.append((d, model))
                except ValidationError as exc:
                    points.append(exc)
            # the built points' stats, or typed errors, in the order of the points
            results = iter(scenario.sweep([p for p in points if not isinstance(p, Exception)]))
            for v, p in zip(chunk, points):
                label = 0.0 if v is None else v
                st = p if isinstance(p, Exception) else next(results)
                if not isinstance(st, Exception):
                    cells = cells_of(st)
                    if all(map(math.isfinite, cells)):
                        yield (label, *cells, None)
                        continue
                    bad = [f"{k} = {c!r}" for k, c in zip(scenario.columns, cells)
                           if not math.isfinite(c)]
                    st = NumericError(f"non-finite closed form: {', '.join(bad)}")
                yield (label, *[None] * len(scenario.columns), f"{type(st).__name__}: {st}")
                if code == EXIT_OK:
                    code = _error_code(st)

    _emit(params.get("out"), _meta_lines("analyze", params),
          [name, *scenario.columns, "error"], rows())
    return code


def _sim_config(params: dict, ecdf: bool) -> mc.SimConfig:
    """The run params describe; with ecdf, D is also binned on the ds/max_s grid."""
    d, model = _build_headway(params), _build_model(params, _ps_table(params))
    grid = (_get(params, "ds"), _get(params, "max_s")) if ecdf else None
    return mc.SimConfig(d, model, _get(params, "trials"), _get(params, "seed"), grid)


def cmd_simulate(params: dict) -> int:
    ecdf_out = params.get("ecdf_out")
    stats = mc.run(_sim_config(params, ecdf=bool(ecdf_out)), workers=_get(params, "workers"))
    header = ["trials", "mean_D", "ci95_mean_D", "var_D", "ci95_var_D",
              "mean_N", "ci95_mean_N", "zero_fraction"]  # SimStats fields
    meta = _meta_lines("simulate", params)
    _emit(params.get("out"), meta, header, [[getattr(stats, k) for k in header]])
    if ecdf_out:
        F = stats.ecdf.values
        _emit(ecdf_out, meta, ["s", "F_D_ecdf"],
              ((s, F[r]) for r, s in _grid_blocks(stats.ecdf.grid_step, F.size)))
    return EXIT_OK


def cmd_compare(params: dict) -> int:
    scenario = _SCENARIOS[params["scenario"]]
    # either grid key asks for the CDF check; _sim_config then requires both
    want_cdf = any(params.get(k) is not None for k in ("ds", "max_s"))
    cfg = _sim_config(params, ecdf=want_cdf)
    # the analytic side first: a grid or point it rejects costs no simulation
    curve = analytic.cdf(cfg.headway, cfg.model, *cfg.ecdf_grid) if want_cdf else None
    st = scenario.stats(cfg.headway, cfg.model)
    stats = mc.run(cfg, workers=_get(params, "workers"))

    checks = [  # (metric label, report, required)
        ("mean_D", mc.compare(st.mean, stats, "mean_D"), True),
        ("var_D_renewal", mc.compare(st.var_renewal, stats, "var_D"), True),
        ("var_D_paper", mc.compare(st.var_paper, stats, "var_D"), False),
        ("mean_N", mc.compare(st.cluster_size, stats, "mean_N"), True),
    ]
    if want_cdf:
        checks.append(("cdf_supnorm", mc.compare(curve, stats, "cdf_supnorm"), True))

    renewal_passed = next(r.passed for label, r, _ in checks if label == "var_D_renewal")
    header = ["metric", "analytic", "simulated", "ci95", "abs_error",
              "rel_error", "status"]
    rows = []
    failed = False
    for label, rep, required in checks:
        if rep.passed:
            status = "pass"
        elif not required and renewal_passed:
            status = "info"  # printed variance variant disagrees; arbitrated by renewal
        else:
            status = "fail"
            failed = True
        rows.append([label, rep.analytic, rep.simulated, rep.ci95,
                     rep.abs_error, rep.rel_error, status])
    _emit(params.get("out"), _meta_lines("compare", params), header, rows)
    return EXIT_COMPARE if failed else EXIT_OK


def cmd_cdf(params: dict) -> int:
    scenario = params["scenario"]
    if params.get("printed_form") and scenario != "contention":
        raise ValidationError(
            f"--printed-form is the contention recursion; the {scenario} scenario has none")
    cfg = _sim_config(params, ecdf=True)
    d, m = cfg.headway, cfg.model
    # the solves first: a grid or point they reject costs no simulation
    curve = analytic.cdf(d, m, *cfg.ecdf_grid)
    header = ["s", "F_D_analytic", "F_D_ecdf", "abs_diff"]
    extra = []
    if params.get("printed_form"):
        header.append("F_D_printed")
        extra.append(solve_printed_cdf(d, m.p_s, m.max_range, *cfg.ecdf_grid))
    stats = mc.run(cfg, workers=_get(params, "workers"))
    F, E = curve.values, stats.ecdf.values
    maxima = []

    def blocks():
        for r, s in _grid_blocks(curve.grid_step, F.size):
            diff = np.abs(F[r] - E[r])
            maxima.append(np.max(diff))
            yield (s, F[r], E[r], diff, *(x[r] for x in extra))

    _emit(params.get("out"), _meta_lines("cdf", params), header, blocks(),
          footer=lambda: f"# sup_norm = {float(np.max(maxima))!r}")
    return EXIT_OK


# subcommand -> (handler, help, its flags beyond the shared ones)
_COMMANDS = {
    "analyze": (cmd_analyze, "closed forms, optionally over a sweep",
                {"--sweep": _PARAMS["sweep"], "--log-sweep": {"action": "store_true"}}),
    "simulate": (cmd_simulate, "Monte Carlo run",
                 {"--ecdf-out": {"help": "also write the simulated ECDF here "
                                         "(needs --ds/--max-s)"}}),
    "compare": (cmd_compare, "closed forms vs simulation", {}),
    "cdf": (cmd_cdf, "distance CDF curve vs simulated ECDF",
            {"--printed-form": {"action": "store_true",
                                "help": "add the printed contention recursion as a column"}}),
}


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="key = value parameter file")
    shared.add_argument("--out", help="write CSV here instead of stdout")
    for key, kwargs in _PARAMS.items():
        if key != "sweep":
            shared.add_argument("--" + key.replace("_", "-"), **kwargs)

    top = argparse.ArgumentParser(prog="vanetprop", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (_, help_, flags) in _COMMANDS.items():
        parser = sub.add_parser(name, parents=[shared], help=help_)
        for flag, kwargs in flags.items():
            parser.add_argument(flag, **kwargs)
    return top


_DEFAULTS = {"scenario": "contention", "seed": 0, "trials": 100000, "workers": 1}


def _resolve(args: argparse.Namespace) -> dict:
    params: dict = dict(_DEFAULTS)
    if args.config:
        params.update(_read_config(args.config))
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None and value is not False:
            params[key] = value
    if params["scenario"] not in _SCENARIOS:
        raise ValidationError(
            f"scenario must be one of {list(_SCENARIOS)}, got {params['scenario']!r}")
    # canonical sweep string so the metadata echo is stable
    if "sweep" in params:
        spec = params["sweep"]
        parts = list(spec) if isinstance(spec, (list, tuple)) \
            else [p.strip() for p in str(spec).split(",")]
        if parts and parts[-1] not in ("log", "linear"):
            parts.append("log" if params.get("log_sweep") else "linear")
        elif params.get("log_sweep"):
            parts[-1] = "log"
        params["sweep"] = ",".join(str(p) for p in parts)
    params.pop("log_sweep", None)
    return params


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](_resolve(args))
    except (ValidationError, DegenerateProcessError, NumericError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _error_code(exc)


if __name__ == "__main__":
    sys.exit(main())
