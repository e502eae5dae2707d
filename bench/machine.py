"""What the run ran on: machine record, steal share, np.dot calibration, import times."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import time

import numpy as np


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies from the first line of /proc/stat; None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()[1:]
    except OSError:
        return None
    ticks = [int(f) for f in fields]
    # user nice system idle iowait irq softirq steal [guest guest_nice]; guest
    # time is already inside user and nice
    total = sum(ticks[:8])
    return ticks[7], total


def steal_share(start, end) -> float:
    """Share of all CPU time the hypervisor stole between two `cpu_ticks` readings."""
    if start is None or end is None or end[1] <= start[1]:
        return 0.0
    return (end[0] - start[0]) / (end[1] - start[1])


def record() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": np.__version__}


def dot_macs_per_s(n: int = 10_000, reps: int = 2000, batches: int = 5) -> dict:
    """np.dot multiply-adds per second on n-element vectors, contiguous and
    reversed-stride: the two operand layouts of the Volterra march."""
    rng = np.random.default_rng(0)
    a = rng.random(n)
    b = rng.random(n + 1)
    rev = b[n:0:-1]
    out = {}
    for name, y in (("contig", b[:n]), ("reversed", rev)):
        rates = []
        for _ in range(batches):
            t0 = time.perf_counter()
            for _ in range(reps):
                np.dot(a, y)
            rates.append(n * reps / (time.perf_counter() - t0))
        out[name] = statistics.median(rates)
    return out


def import_times(python: str, cwd: str, env: dict, runs: int = 3) -> dict:
    """Median `-X importtime` cumulative seconds of numpy and of the rest of
    `import vanetprop.cli` (vanetprop and the stdlib modules it pulls in,
    less numpy), each from a fresh interpreter."""
    numpy_s, own_s = [], []
    for _ in range(runs):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import vanetprop.cli"],
                              cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and line.startswith("import time:"):
                name = parts[2].strip()
                if name in ("numpy", "vanetprop.cli"):
                    cumulative[name] = int(parts[1]) * 1e-6
        numpy_s.append(cumulative["numpy"])
        own_s.append(cumulative["vanetprop.cli"] - cumulative["numpy"])
    return {"numpy": statistics.median(numpy_s), "vanetprop": statistics.median(own_s)}
