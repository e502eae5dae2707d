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
import re
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
    columns: dict[str, str]  # `analyze` column -> the DistanceStats field behind it


_SCENARIOS = {
    "contention": _Scenario(
        analytic.ContentionModel, ("ps", "range"),
        {"mu_D": "mean", "mean_lower": "mean_lower", "mean_upper": "mean_upper",
         "var_paper": "var_paper", "var_renewal": "var_renewal",
         "var_lower": "var_lower", "var_upper": "var_upper", "mu_N": "cluster_size"}),
    "fading": _Scenario(
        fading.FadingModel, ("pt", "gain", "d0", "alpha", "pth"),
        {"q_hop": "q_hop", "mu_D": "mean", "var_paper": "var_paper",
         "var_renewal": "var_renewal"}),
}

# config key -> keywords of its --key-name flag. A config file accepts
# exactly these keys; its values stay strings until _get reads them. Every
# gap-family and link parameter of the tables above is a float flag; an
# entry below overrides one that has another type or a help text.
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
    **{k: {"type": float} for _, keys in _HEADWAYS.values() for k in keys},
    **{k: {"type": float} for s in _SCENARIOS.values() for k in s.link},
    "data": {"type": str, "help": "empirical headway sample file"},
    "range": {"type": float, "help": "contention max range L (m)"},
    "ps_table": {"type": str, "help": "CSV of load,p_s pairs; interpolated at --load"},
    "load": {"type": float},
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


def _build_swept(params: dict, name: str, table: Callable[[float], float] | None):
    """v -> the headway law or channel model that `name` belongs to, built with v for
    it: one constructor call on its other parameters, typed once. Where one of those
    does not type, each v builds from all of them, so every point raises that error."""
    headway = name in _headway_keys(params)
    make, keys = (_HEADWAYS[params["headway"]] if headway
                  else (_SCENARIOS[params["scenario"]].model, _link_keys(params)))
    try:
        args = [table(_get(params, k)) if k == "load" else _get(params, k)
                for k in keys if k != name]
    except ValidationError:
        return lambda v: (_build_headway({**params, name: v}) if headway
                          else _build_model({**params, name: v}, table))
    i, at = keys.index(name), table if name == "load" else float
    before, after = args[:i], args[i:]
    return lambda v: make(*before, at(v), *after)


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
    # _resolve joined it into a string that ends in its scale, log or linear
    *parts, scale = [p.strip() for p in spec.split(",")]
    if len(parts) != 4:
        raise ValidationError(f"sweep must be 'name,from,to,steps[,log]', got {spec!r}")
    name = parts[0]
    readable = {k for k in (*_link_keys(params), *_headway_keys(params))
                if _PARAMS[k]["type"] is float}  # the numeric parameters the run reads
    if name not in readable:
        raise ValidationError(
            f"cannot sweep {name!r}: this scenario and headway read only {sorted(readable)}"
        )
    try:
        lo, hi = float(parts[1]), float(parts[2])
        steps = int(parts[3])
        if not np.isfinite(hi - lo):  # an infinite or nan bound, or a span past the doubles
            raise ValueError
    except ValueError:
        raise ValidationError(f"bad sweep bounds in {spec!r}") from None
    if steps < 1:
        raise ValidationError(f"sweep steps must be >= 1, got {steps}")
    if scale == "log" and (lo <= 0 or hi <= 0):
        raise ValidationError("log sweep needs positive bounds")
    try:
        values = (np.geomspace if scale == "log" else np.linspace)(lo, hi, steps)
    except (ValueError, MemoryError):
        raise ValidationError(f"a sweep of {steps} steps is too long to hold") from None
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
    run of numeric rows, given as their columns (1-D arrays of one length, or
    None for a column of empty cells). Each is written as it comes, a block
    in one write, so that a long table's text is never held whole. footer is
    called once every row is written, so it can report on what the rows held.

    Every row has the bytes csv.writer gives it: floats as their repr, so
    that parsing the file back recovers them exactly, and None as an empty
    cell. Numbers need no quoting, so the rows of a block go through one
    "%r,...,%r" format per row instead, at less cost; every other row goes
    through csv.writer, for its quoting.
    """
    with (open(out_path, "w", encoding="utf-8", newline="") if out_path
          else contextlib.nullcontext(sys.stdout)) as fh:
        for line in meta:
            fh.write(line + "\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            if isinstance(row[0], np.ndarray):
                fmt = ",".join("" if c is None else "%r" for c in row) + "\n"
                cols = [c.tolist() for c in row if c is not None]
                fh.write("".join([fmt % r for r in zip(*cols)]))
            else:
                w.writerow(row)
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

    The points are built, evaluated (`analytic.sweep_columns`) and written
    _CSV_CHUNK_ROWS at a time, so the memory a sweep takes does not grow with
    its length; a chunk's finite rows are written from its columns as blocks.
    A point rebuilds only the object the swept parameter belongs to; the
    other one is built once and shared by every chunk.
    """
    name, values = _sweep_values(params) or ("point", [None])
    scenario = _SCENARIOS[params["scenario"]]
    table = _ps_table(params)
    new_headway = name in _headway_keys(params)
    new_model = name in _link_keys(params)
    build = (new_headway or new_model) and _build_swept(params, name, table)
    code = EXIT_OK

    def rows():
        nonlocal code
        d = model = None
        for lo in range(0, len(values), _CSV_CHUNK_ROWS):
            chunk = values[lo:lo + _CSV_CHUNK_ROWS]
            errors, points = [], []  # per value: the typed error building it raised, or None
            for v in chunk:
                try:
                    if d is None or new_headway:
                        d = build(v) if new_headway else _build_headway(params)
                    if model is None or new_model:
                        model = build(v) if new_model else _build_model(params, table)
                    points.append((d, model))
                    errors.append(None)
                except ValidationError as exc:
                    errors.append(exc)
            built = np.flatnonzero([e is None for e in errors])
            found, groups = analytic.sweep_columns(points)
            cells = np.full((len(scenario.columns), len(chunk)), np.nan)
            for idx, columns in groups:
                cells[:, built[idx]] = [columns[f] for f in scenario.columns.values()]
            for i, e in zip(built.tolist(), found):
                errors[i] = e
            labels = np.zeros(1) if chunk[0] is None else np.asarray(chunk)
            # runs of finite rows as blocks, between the error rows in their places
            start = 0
            for j in [*np.flatnonzero(~np.isfinite(cells).all(axis=0)).tolist(), len(chunk)]:
                if start < j:
                    yield (labels[start:j], *cells[:, start:j], None)
                if j < len(chunk):
                    exc = errors[j] or NumericError("non-finite closed form: " + ", ".join(
                        f"{k} = {c!r}" for k, c in zip(scenario.columns, cells[:, j].tolist())
                        if not np.isfinite(c)))
                    yield (labels[j].item(), *[None] * len(scenario.columns),
                           f"{type(exc).__name__}: {exc}")
                    code = code or _error_code(exc)
                start = j + 1

    _emit(params.get("out"), _meta_lines("analyze", params),
          [name, *scenario.columns, "error"], rows())
    return code


def _grid_checked(make, *args):
    """make(*args), a ValidationError re-raised naming the grid by the flags that set it."""
    flags = {"grid_step": "--ds", "max_s": "--max-s", "max_range": "--range"}
    try:
        return make(*args)
    except ValidationError as exc:
        raise ValidationError(re.sub(r"\w+", lambda m: flags.get(m[0], m[0]), str(exc))) from None


def _sim_config(params: dict, ecdf: bool) -> mc.SimConfig:
    """The run params describe; with ecdf, D is also binned on the ds/max_s grid."""
    d, model = _build_headway(params), _build_model(params, _ps_table(params))
    grid = (_get(params, "ds"), _get(params, "max_s")) if ecdf else None
    trials, seed = _get(params, "trials"), _get(params, "seed")
    return _grid_checked(mc.SimConfig, d, model, trials, seed, grid)


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
    # either grid key asks for the CDF check; _sim_config then requires both
    want_cdf = any(params.get(k) is not None for k in ("ds", "max_s"))
    cfg = _sim_config(params, ecdf=want_cdf)
    # the analytic side first: a grid or point it rejects costs no simulation
    curve = _grid_checked(analytic.cdf, cfg.headway, cfg.model, *cfg.ecdf_grid) \
        if want_cdf else None
    st = analytic.distance_stats(cfg.headway, cfg.model)
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
    curve = _grid_checked(analytic.cdf, d, m, *cfg.ecdf_grid)
    header = ["s", "F_D_analytic", "F_D_ecdf", "abs_diff"]
    extra = []
    if params.get("printed_form"):  # after `cdf`, which checked the same grid
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
