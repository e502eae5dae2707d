"""One pass over a workload's ops, in a fresh interpreter.

Usage: python one_pass.py SPEC.json

SPEC holds {"ops": [[name, argv], ...], "trace": bool, "result": path}.
The first thing this process does is import vanetprop.cli, so the
import-done time it reports marks the end of set-up as a CLI user pays
it. The ops then run back to back through `cli.main`, timed from after
import. The result file gets the import-done time, the pass and per-op
wall times, the reference-loop times read just before and after the ops,
exit codes, peak RSS and, when tracing, the spans.
"""

import time

from vanetprop import cli

IMPORTED = time.monotonic()  # CLOCK_MONOTONIC is system-wide, so the parent can subtract

import json  # noqa: E402  (after the timed import on purpose)
import math  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def peak_rss_kib() -> int:
    """This process's peak resident set (VmHWM). Not ru_maxrss: on Linux
    that keeps the parent's peak across fork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def _kernel(x: float) -> float:
    return math.exp(-1.3 * x) * math.log1p(x) + x / (1.0 + x * x)


def reference_s() -> float:
    """Seconds this process takes for fixed pure-Python work that uses
    nothing of vanetprop: an integer loop, then scalar float calls like the
    quadrature's. A reading of the host's speed at this moment; the mix
    tracks the speed of all three workloads better than either part alone."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(600_000):
        acc += i * i % 7
    total = 0.0
    for i in range(120_000):
        total += _kernel(i * 1e-4)
    return time.perf_counter() - t0


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    main_fn = cli.main
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        main_fn = tracer.timed(cli.main, "cli.main")
    ref_before = reference_s()
    codes, errors, op_s = [], [], []
    start = time.perf_counter()
    for i, (_name, argv) in enumerate(spec["ops"]):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            codes.append(main_fn(argv))
            errors.append("")
        except Exception:  # an op that raises is a failed op, not a dead pass
            codes.append(None)
            errors.append(traceback.format_exc())
        op_s.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    ref_after = reference_s()
    result = {
        "imported": IMPORTED,
        "wall_s": wall,
        "op_s": op_s,
        "ref_s": [ref_before, ref_after],
        "codes": codes,
        "errors": errors,
        "peak_rss_kib": peak_rss_kib(),
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
