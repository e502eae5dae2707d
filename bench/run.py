"""Benchmark of the vanetprop CLI, end to end and layer by layer.

Usage (from the repository root):

    python3 bench/run.py --workload sim_compare --seed 1 --seconds 36 --trace 0

Each pass runs the workload's ops (see workloads.py) through
`vanetprop.cli.main` in a fresh interpreter, because a CLI user pays
process start and every lazy cache on each invocation. Passes repeat
until --seconds is used up. Every output is checked and hashed; passes
with the same seed must hash alike.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json, each
the median over the run's passes: wall_per_ref, set-up time (interpreter
start until vanetprop.cli is imported) and peak RSS. wall_per_ref is a
pass's wall time after import divided by the time the same process takes
for a fixed pure-Python loop, run just before and just after the ops
(one_pass.reference_s). The shared host this was built on switches
between a fast and a slow speed, up to 1.5x apart, for seconds to
minutes at a time, and process CPU time moves with wall time; the ratio
cancels that drift, so it moves only when the program's own speed does.
The readable lines print the raw wall_s too.

--trace 1 alternates untraced and traced passes. Traced passes wrap
vanetprop's public functions from outside (tracer.py) and report the
per-layer metrics of BENCHMARK.json; it also records import times, an
np.dot calibration and the thread pool's speed-up.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Readable lines before it
print the same figures plus the workload's throughput and fail_frac.
The full record (machine, per-pass times, hashes, spans of the last
traced pass) goes to .bench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import machine
import workloads
from layers import from_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
PASS_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _data_rows(csv_bytes: bytes) -> int:
    """CSV rows other than '#' lines and the header."""
    lines = [ln for ln in csv_bytes.splitlines() if not ln.startswith(b"#")]
    return max(len(lines) - 1, 0)


class Runner:
    """Runs passes of one workload and checks every output."""

    def __init__(self, work: Path, workload, seed: int, expected_mean: float):
        self.work = work
        self.workload = workload
        self.seed = seed
        self.expected_mean = expected_mean
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
        self.hashes: dict[str, dict[str, str]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.unexpected: list[str] = []
        self.passes = 0

    def run_pass(self, trace: bool, ops=None) -> dict:
        ops = self.workload.ops if ops is None else ops
        pdir = self.work / f"pass{self.passes}"
        self.passes += 1
        spec_ops = []
        for i, op in enumerate(ops):
            d = pdir / f"op{i}"
            d.mkdir(parents=True)
            spec_ops.append([op.name, workloads.op_argv(op, self.seed, str(d))])
        spec = {"ops": spec_ops, "trace": trace, "result": str(pdir / "result.json")}
        (pdir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        spawned = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "one_pass.py"),
                               str(pdir / "spec.json")],
                              cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
        if proc.returncode != 0 or not (pdir / "result.json").exists():
            raise BenchError(f"pass process exited {proc.returncode}: {proc.stderr[-2000:]}")
        res = json.loads((pdir / "result.json").read_text(encoding="utf-8"))
        out = {"wall_s": res["wall_s"], "setup_s": res["imported"] - spawned,
               "rss_mb": res["peak_rss_kib"] / 1024.0, "op_s": res["op_s"],
               "ref_s": statistics.fmean(res["ref_s"]),
               "codes": res["codes"], "hashes": [], "out_rows": 0, "out_bytes": 0}
        for i, op in enumerate(ops):
            d = pdir / f"op{i}"
            self.attempted += 1
            problems, known = workloads.check_op(op, res["codes"][i], str(d),
                                                 self.expected_mean)
            if res["errors"][i]:
                problems.append(res["errors"][i].strip().splitlines()[-1])
            hashes = {}
            for o in op.outputs:
                if (d / o).exists():
                    data = (d / o).read_bytes()
                    hashes[o] = hashlib.sha256(data).hexdigest()
                    out["out_rows"] += _data_rows(data)
                    out["out_bytes"] += len(data)
            ref = self.hashes.setdefault(op.name, hashes)
            if hashes != ref:
                problems.append("output differs from an earlier pass with the same seed")
                known = False
            out["hashes"].append(hashes)
            if problems:
                self.failures.append(f"{op.name}: {'; '.join(problems)}")
                if not known:
                    self.unexpected.append(self.failures[-1])
        if trace:
            out["trace"] = res["trace"]
        shutil.rmtree(pdir)
        return out


def _percentile_hi(values: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n <= 10:
        return None
    k = n - 10
    return f"p{100.0 * k / n:.0f}", sorted(values)[k - 1]


def _summary_line(name: str, values: list[float], unit: str) -> str:
    med = statistics.median(values)
    hi = _percentile_hi(values)
    tail = f", {hi[0]} {hi[1]:.6g}" if hi else ", no tail percentile (n <= 10)"
    return f"  {name:<20} {med:.6g} {unit} (median{tail}; n = {len(values)})"


def _loop(deadline: float, make_pass, minimum: int) -> None:
    """Call make_pass until the next one would run past the deadline."""
    durations: list[float] = []
    while True:
        t0 = time.monotonic()
        make_pass()
        durations.append(time.monotonic() - t0)
        if len(durations) >= minimum and time.monotonic() + max(durations) > deadline:
            return


def _pool_probe(runner: Runner, inputs: dict) -> dict[str, list[float]]:
    """mc.run seconds of sim_compare op 1 at workers 1 and 2, in one traced pass."""
    op1 = workloads.build("sim_compare", inputs).ops[0]
    base = op1.argv[:op1.argv.index("--workers")]
    order = ("1", "2", "2", "1")
    probe = [dataclasses.replace(op1, argv=(*base, "--workers", w)) for w in order]
    spans = runner.run_pass(True, probe)["trace"]["spans"]
    runs: dict[str, list[float]] = {"1": [], "2": []}
    for s in spans:
        if s[0] == "mc.run":
            runs[order[s[1]]].append(s[4] - s[3])
    return runs


def _per_layer(record: dict, plain: list[dict], traced: list[dict]) -> dict[str, float]:
    per_pass = [from_trace(p["trace"]) for p in traced]
    layer = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    layer["cli.out_bytes"] = statistics.median(p["out_bytes"] for p in traced)
    layer["cli.out_rows"] = statistics.median(p["out_rows"] for p in traced)
    w1 = statistics.median(record["pool_mc_run_s"]["1"])
    w2 = statistics.median(record["pool_mc_run_s"]["2"])
    layer.update({"mc.pool.w1_s": w1, "mc.pool.w2_s": w2, "mc.pool_speedup_w2": w1 / w2})
    layer["setup.import_numpy_s"] = record["import_s"]["numpy"]
    layer["setup.import_vanetprop_s"] = record["import_s"]["vanetprop"]
    for k, v in record["calib_dot_macs_per_s"].items():
        layer[f"calib.dot_macs_per_s.{k}"] = v
    layer["trace.overhead"] = (statistics.median(p["wall_s"] for p in traced)
                               / statistics.median(p["wall_s"] for p in plain) - 1.0)
    layer["machine.nproc"] = record["machine"]["nproc"]
    layer["machine.steal_frac"] = record["steal_share"]
    layer["machine.ref_s"] = statistics.median(p["ref_s"] for p in plain + traced)
    return layer


def run(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))  # for the closed form the simulate check uses
    started = time.monotonic()
    deadline = started + args.seconds
    ticks0 = machine.cpu_ticks()
    # inputs go in by a path relative to the root: the CSVs echo it, and a
    # fixed path keeps their hashes comparable across runs with one seed
    os.chdir(ROOT)
    out_dir = Path(".bench_out")
    work = out_dir / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = workloads.write_inputs(args.seed, str(work))
        wl = workloads.build(args.workload, inputs)
        runner = Runner(work, wl, args.seed, workloads.expected_simulate_mean())
        record: dict = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
                        "machine": machine.record(),
                        "ops": [dataclasses.asdict(o) for o in wl.ops]}
        plain: list[dict] = []
        traced: list[dict] = []
        if args.trace:
            record["calib_dot_macs_per_s"] = machine.dot_macs_per_s()
            record["import_s"] = machine.import_times(sys.executable, str(ROOT), runner.env)
            record["pool_mc_run_s"] = _pool_probe(runner, inputs)

            def pair():
                plain.append(runner.run_pass(False))
                traced.append(runner.run_pass(True))

            _loop(deadline, pair, 2)
        else:
            _loop(deadline, lambda: plain.append(runner.run_pass(False)), MIN_PASSES)
        record["steal_share"] = machine.steal_share(ticks0, machine.cpu_ticks())

        walls = [p["wall_s"] for p in plain]
        e2e = {"wall_per_ref": [p["wall_s"] / p["ref_s"] for p in plain],
               "wall_s": walls,
               "setup_s": [p["setup_s"] for p in plain + traced],
               "peak_rss_mb": [p["rss_mb"] for p in plain],
               wl.work_metric: [wl.work / w for w in walls]}
        units = {"wall_per_ref": "ratio", "wall_s": "s", "setup_s": "s",
                 "peak_rss_mb": "MiB", wl.work_metric: wl.work_unit}
        m = record["machine"]
        lines = [f"workload {wl.name}, seed {args.seed}, trace {args.trace}: "
                 f"{len(plain)} untraced and {len(traced)} traced passes in "
                 f"{time.monotonic() - started:.1f} s, one fresh process each",
                 f"machine: nproc {m['nproc']}, {m['cpu']}, python {m['python']}, "
                 f"numpy {m['numpy']}, steal {100 * record['steal_share']:.2f}% of CPU time",
                 "end to end (untraced passes):"]
        lines += [_summary_line(k, v, units[k]) for k, v in e2e.items()]
        lines.append(f"  {'fail_frac':<20} {len(runner.failures) / runner.attempted:.6g} "
                     f"ratio ({len(runner.failures)} of {runner.attempted} ops)")
        lines += [f"  failed: {f}" for f in dict.fromkeys(runner.failures)]

        kind = "per_layer" if args.trace else "end_to_end"
        unit_of = {e["name"]: e["unit"] for e in spec[kind]}
        if args.trace:
            values = _per_layer(record, plain, traced)
            record["patched"] = traced[-1]["trace"]["patched"]
            record["spans"] = traced[-1]["trace"]["spans"]
            lines.append(f"per layer (median of {len(traced)} traced passes; patched: "
                         f"{', '.join(record['patched'])}):")
            lines += [f"  {k:<36} {values[k]:.6g} {u}" for k, u in unit_of.items()]
        else:
            values = {k: statistics.median(v) for k, v in e2e.items()}
        metrics = {k: {"value": values[k], "unit": u} for k, u in unit_of.items()}
        for p in plain + traced:
            p.pop("trace", None)
        record.update(passes=plain + traced, failures=runner.failures, metrics=metrics)
        out_file = out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
        out_file.write_text(json.dumps(record), encoding="utf-8")
        lines.append(f"record: {out_file}")
        print("\n".join(lines))
        return {"correct": not runner.unexpected, "attempted": runner.attempted,
                "failed": len(runner.failures), "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    needed = [ROOT / "src" / "vanetprop" / "cli.py", ROOT / "configs" / "contention.cfg",
              ROOT / "configs" / "fading.cfg", ROOT / "BENCHMARK.json"]
    missing = [str(f.relative_to(ROOT)) for f in needed if not f.is_file()]
    if missing:
        print(f"error: not a vanetprop checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
