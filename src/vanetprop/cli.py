"""Command line interface.

Subcommands: analyze (closed forms over an optional sweep), simulate
(Monte Carlo), compare (closed forms vs simulation with pass/fail
arbitration), cdf (distance CDF curve vs simulated ECDF).

Output is CSV, preceded by '#' metadata lines that echo the resolved run
parameters (never execution details like worker count, so reruns are
byte-identical). Exit codes: 0 ok, 2 validation error, 3 degenerate
process, 4 numeric failure, 5 comparison failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

import numpy as np

from . import __version__, analytic, fading, mc
from .errors import DegenerateProcessError, NumericError, ValidationError
from .headway import (
    DeterministicHeadway,
    ExponentialHeadway,
    LognormalHeadway,
    UniformHeadway,
    load_headway_file,
)
from .quad import solve_printed_cdf, solve_renewal_cdf

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3
EXIT_NUMERIC = 4
EXIT_COMPARE = 5

_HEADWAY_PARAMS = {
    "exponential": ("rate",),
    "uniform": ("low", "high"),
    "lognormal": ("log_mean", "log_sd"),
    "deterministic": ("spacing",),
    "empirical": ("data",),
}
_FADING_PARAMS = ("pt", "gain", "d0", "alpha", "pth")

# per scenario: the closed forms at one point, and the `analyze` columns
# their dataclass fields fill, in field order
_STATS = {
    "contention": (["mu_D", "mean_lower", "mean_upper", "var_paper", "var_renewal",
                    "var_lower", "var_upper", "mu_N"],
                   lambda d, model: analytic.distance_stats(d, model)),
    "fading": (["q_hop", "mu_D", "var_paper", "var_renewal"],
               lambda d, model: fading.fading_stats(model, d)),
}

_CONFIG_KEYS = {
    "scenario", "headway", "rate", "low", "high", "log_mean", "log_sd",
    "spacing", "data", "ps", "range", "ps_table", "load",
    "pt", "gain", "d0", "alpha", "pth",
    "ds", "max_s", "trials", "seed", "workers", "sweep",
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
            if key not in _CONFIG_KEYS:
                raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = value.strip()
    return out


def _as_float(params: dict, key: str) -> float:
    v = params.get(key)
    if v is None:
        raise ValidationError(f"missing required parameter {key!r}")
    try:
        return float(v)
    except (TypeError, ValueError):
        raise ValidationError(f"parameter {key!r} must be a number, got {v!r}") from None


def _as_int(params: dict, key: str) -> int:
    v = params.get(key)
    if v is None:
        raise ValidationError(f"missing required parameter {key!r}")
    try:
        if isinstance(v, float) and v != int(v):
            raise ValueError
        return int(v)
    except (TypeError, ValueError):
        raise ValidationError(f"parameter {key!r} must be an integer, got {v!r}") from None


def _load_ps_table(path: str) -> tuple[np.ndarray, np.ndarray]:
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
    ax = np.array(xs)
    if not np.all(np.diff(ax) > 0):
        raise ValidationError(f"{path}: first column must be strictly increasing")
    return ax, np.array(ys)


def _build_headway(params: dict):
    family = params.get("headway")
    if family not in _HEADWAY_PARAMS:
        raise ValidationError(
            f"headway must be one of {sorted(_HEADWAY_PARAMS)}, got {family!r}"
        )
    if family == "exponential":
        return ExponentialHeadway(rate=_as_float(params, "rate"))
    if family == "uniform":
        return UniformHeadway(low=_as_float(params, "low"), high=_as_float(params, "high"))
    if family == "lognormal":
        return LognormalHeadway(log_mean=_as_float(params, "log_mean"),
                                log_sd=_as_float(params, "log_sd"))
    if family == "deterministic":
        return DeterministicHeadway(spacing=_as_float(params, "spacing"))
    path = params.get("data")
    if not path:
        raise ValidationError("empirical headway needs data = <path>")
    return load_headway_file(path)


def _effective_ps(params: dict) -> float:
    table = params.get("ps_table")
    if table:
        xs, ys = _load_ps_table(table)
        load = _as_float(params, "load")
        if load < xs[0] or load > xs[-1]:
            raise ValidationError(
                f"load {load!r} outside table range [{xs[0]!r}, {xs[-1]!r}]"
            )
        return float(np.interp(load, xs, ys))
    return _as_float(params, "ps")


def _build_model(params: dict):
    scenario = params.get("scenario", "contention")
    if scenario == "contention":
        return analytic.ContentionModel(p_s=_effective_ps(params),
                                        max_range=_as_float(params, "range"))
    if scenario == "fading":
        return fading.FadingModel(
            tx_power=_as_float(params, "pt"),
            gain_const=_as_float(params, "gain"),
            ref_distance=_as_float(params, "d0"),
            path_loss_exp=_as_float(params, "alpha"),
            power_threshold=_as_float(params, "pth"),
        )
    raise ValidationError(f"scenario must be contention or fading, got {scenario!r}")


def _headway_params(params: dict) -> tuple[str, ...]:
    return _HEADWAY_PARAMS.get(params.get("headway"), ())


def _read_params(params: dict) -> set[str]:
    """The numeric parameters the resolved scenario and headway family read."""
    if params.get("scenario", "contention") == "fading":
        names = set(_FADING_PARAMS)
    else:
        names = {"load" if params.get("ps_table") else "ps", "range"}
    return names | set(_headway_params(params)) - {"data"}


def _sweep_values(params: dict):
    """(name, values) or None. Spec: 'name,from,to,steps[,log]'.

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
    return name, [float(v) for v in values]


def _meta_lines(command: str, params: dict) -> list[str]:
    # workers and output paths are execution details, not part of the run
    # spec; leaving them out keeps reruns byte-identical across pool sizes
    skip = {"log_sweep", "workers", "out", "ecdf_out"}
    lines = [f"# vanetprop {__version__}", f"# command: {command}"]
    for key in sorted(params):
        if key in skip or params[key] is None:
            continue
        lines.append(f"# {key} = {params[key]}")
    return lines


def _emit(out_path, meta: list[str], header: list[str], rows: list[list],
          footer: str | None = None) -> None:
    # csv writes floats with repr, so parsing the file back recovers them
    # exactly, and None as an empty cell
    buf = io.StringIO()
    for line in meta:
        buf.write(line + "\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    if footer is not None:
        buf.write(footer + "\n")
    text = buf.getvalue()
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error_code(exc: Exception) -> int:
    if isinstance(exc, DegenerateProcessError):
        return EXIT_DEGENERATE
    if isinstance(exc, NumericError):
        return EXIT_NUMERIC
    return EXIT_VALIDATION


def cmd_analyze(params: dict) -> int:
    sweep = _sweep_values(params)
    scenario = params.get("scenario", "contention")
    if scenario not in _STATS:
        raise ValidationError(f"scenario must be contention or fading, got {scenario!r}")
    columns, stats = _STATS[scenario]
    if sweep is None:
        name, values = "point", [None]
    else:
        name, values = sweep

    rows = []
    code = EXIT_OK
    d = None
    for v in values:
        point = dict(params)
        if v is not None:
            point[name] = v
        label = 0.0 if v is None else v
        try:
            # one headway serves every point unless the sweep varies it
            if d is None or name in _headway_params(params):
                d = _build_headway(point)
            st = stats(d, _build_model(point))
            rows.append((label, *vars(st).values(), None))  # fields in definition order
        except (ValidationError, DegenerateProcessError, NumericError) as exc:
            rows.append((label, *[None] * len(columns), f"{type(exc).__name__}: {exc}"))
            if code == EXIT_OK:
                code = _error_code(exc)
    _emit(params.get("out"), _meta_lines("analyze", params), [name, *columns, "error"], rows)
    return code


def _sim_config(params: dict, need_ecdf: bool) -> mc.SimConfig:
    d = _build_headway(params)
    model = _build_model(params)
    grid = None
    if need_ecdf:
        grid = (_as_float(params, "ds"), _as_float(params, "max_s"))
    return mc.SimConfig(
        headway=d,
        model=model,
        trials=_as_int(params, "trials"),
        seed=_as_int(params, "seed"),
        ecdf_grid=grid,
    )


def cmd_simulate(params: dict) -> int:
    ecdf_out = params.get("ecdf_out")
    cfg = _sim_config(params, need_ecdf=bool(ecdf_out))
    stats = mc.run(cfg, workers=_as_int(params, "workers"))
    header = ["trials", "mean_D", "ci95_mean_D", "var_D", "ci95_var_D",
              "mean_N", "ci95_mean_N", "zero_fraction"]
    rows = [[stats.trials, stats.mean_D, stats.ci95_mean_D, stats.var_D,
             stats.ci95_var_D, stats.mean_N, stats.ci95_mean_N,
             stats.zero_fraction]]
    meta = _meta_lines("simulate", params)
    _emit(params.get("out"), meta, header, rows)
    if ecdf_out:
        erows = np.column_stack((stats.ecdf.grid(), stats.ecdf.values)).tolist()
        _emit(ecdf_out, meta, ["s", "F_D_ecdf"], erows)
    return EXIT_OK


def cmd_compare(params: dict) -> int:
    scenario = params.get("scenario", "contention")
    want_cdf = scenario == "contention" and params.get("ds") is not None \
        and params.get("max_s") is not None
    cfg = _sim_config(params, need_ecdf=want_cdf)
    stats = mc.run(cfg, workers=_as_int(params, "workers"))

    d, model = cfg.headway, cfg.model
    printed = _STATS[scenario][1](d, model).var_paper  # the scenario's printed variance
    checks = [  # (metric label, report, required)
        ("mean_D", mc.compare(analytic.mean_distance(d, model), stats, "mean_D"), True),
        ("var_D_renewal", mc.compare(analytic.variance_renewal(d, model), stats, "var_D"),
         True),
        ("var_D_paper", mc.compare(printed, stats, "var_D"), False),
        ("mean_N", mc.compare(analytic.mean_cluster_size(d, model), stats, "mean_N"), True),
    ]
    if want_cdf:
        curve = analytic.cdf(d, model, _as_float(params, "ds"), _as_float(params, "max_s"))
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
    if params.get("scenario", "contention") != "contention":
        raise ValidationError("the cdf command supports the contention scenario only")
    cfg = _sim_config(params, need_ecdf=True)
    stats = mc.run(cfg, workers=_as_int(params, "workers"))
    ds = _as_float(params, "ds")
    max_s = _as_float(params, "max_s")
    curve = analytic.cdf(cfg.headway, cfg.model, ds, max_s)
    printed = None
    if params.get("printed_form"):
        printed = solve_printed_cdf(cfg.headway, cfg.model.p_s,
                                    cfg.model.max_range, ds, max_s)
    header = ["s", "F_D_analytic", "F_D_ecdf", "abs_diff"]
    diff = np.abs(curve.values - stats.ecdf.values)
    cols = [curve.grid(), curve.values, stats.ecdf.values, diff]
    if printed is not None:
        header.append("F_D_printed")
        cols.append(printed)
    sup = float(np.max(diff))
    _emit(params.get("out"), _meta_lines("cdf", params), header,
          np.column_stack(cols).tolist(), footer=f"# sup_norm = {sup!r}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="key = value parameter file")
    shared.add_argument("--out", help="write CSV here instead of stdout")
    shared.add_argument("--seed", type=int)
    shared.add_argument("--trials", type=int)
    shared.add_argument("--workers", type=int,
                        help="simulation worker processes; results do not depend on it")
    shared.add_argument("--scenario", choices=["contention", "fading"])
    shared.add_argument("--headway",
                        choices=sorted(_HEADWAY_PARAMS))
    shared.add_argument("--rate", type=float)
    shared.add_argument("--low", type=float)
    shared.add_argument("--high", type=float)
    shared.add_argument("--log-mean", dest="log_mean", type=float)
    shared.add_argument("--log-sd", dest="log_sd", type=float)
    shared.add_argument("--spacing", type=float)
    shared.add_argument("--data", help="empirical headway sample file")
    shared.add_argument("--ps", type=float)
    shared.add_argument("--range", type=float, help="contention max range L (m)")
    shared.add_argument("--ps-table", dest="ps_table",
                        help="CSV of load,p_s pairs; interpolated at --load")
    shared.add_argument("--load", type=float)
    shared.add_argument("--pt", type=float)
    shared.add_argument("--gain", type=float)
    shared.add_argument("--d0", type=float)
    shared.add_argument("--alpha", type=float)
    shared.add_argument("--pth", type=float)
    shared.add_argument("--ds", type=float, help="CDF grid step (m)")
    shared.add_argument("--max-s", dest="max_s", type=float, help="CDF grid end (m)")

    top = argparse.ArgumentParser(prog="vanetprop", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)
    pa = sub.add_parser("analyze", parents=[shared],
                        help="closed forms, optionally over a sweep")
    pa.add_argument("--sweep", nargs=4, metavar=("NAME", "FROM", "TO", "STEPS"))
    pa.add_argument("--log-sweep", dest="log_sweep", action="store_true")
    ps_ = sub.add_parser("simulate", parents=[shared], help="Monte Carlo run")
    ps_.add_argument("--ecdf-out", dest="ecdf_out",
                     help="also write the simulated ECDF here (needs --ds/--max-s)")
    sub.add_parser("compare", parents=[shared],
                   help="closed forms vs simulation")
    pc = sub.add_parser("cdf", parents=[shared],
                        help="distance CDF curve vs simulated ECDF")
    pc.add_argument("--printed-form", dest="printed_form", action="store_true",
                    help="add the uncorrected printed recursion as a column")
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
        params = _resolve(args)
        if args.command == "analyze":
            return cmd_analyze(params)
        if args.command == "simulate":
            return cmd_simulate(params)
        if args.command == "compare":
            return cmd_compare(params)
        return cmd_cdf(params)
    except (ValidationError, DegenerateProcessError, NumericError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _error_code(exc)


if __name__ == "__main__":
    sys.exit(main())
