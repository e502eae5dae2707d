"""Shared helpers for the test suite.

random_point draws (headway, model) pairs from the regime of a sane radio
range: transmission range far above the headway scale. any_point draws
from the whole domain, where the range may sit below the mean gap. The
bounds are exact requirements on both (see the mean_distance_bounds
docstring), so the sandwich checks are not statistical ones.
"""

import os
import pathlib

import numpy as np

from vanetprop import (
    ContentionModel,
    DeterministicHeadway,
    EmpiricalHeadway,
    ExponentialHeadway,
    LognormalHeadway,
    UniformHeadway,
)

# pyproject's pythonpath puts src/ on this process's path only; subprocess
# tests (`python -m vanetprop.cli`) must import the same checkout
_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

FAMILIES = ("exponential", "uniform", "lognormal", "deterministic", "empirical")


def random_point(rng: np.random.Generator):
    """One randomized (headway, ContentionModel) inside the bounds' regime."""
    family = FAMILIES[rng.integers(0, len(FAMILIES))]
    L = float(rng.uniform(100.0, 300.0))
    p_s = float(rng.uniform(0.05, 0.95))
    if family == "exponential":
        d = ExponentialHeadway(rate=float(rng.uniform(0.06, 0.5)))
    elif family == "uniform":
        lo = float(rng.uniform(0.0, 0.8 * L))
        d = UniformHeadway(low=lo, high=float(rng.uniform(lo + 0.5, L)))
    elif family == "lognormal":
        d = LognormalHeadway(log_mean=float(rng.uniform(1.0, 2.2)),
                             log_sd=float(rng.uniform(0.25, 0.8)))
    elif family == "deterministic":
        d = DeterministicHeadway(spacing=float(rng.uniform(1.0, 0.8 * L)))
    else:
        n = int(rng.integers(50, 400))
        data = np.minimum(rng.exponential(rng.uniform(2.0, 15.0), n), 0.5 * L)
        d = EmpiricalHeadway.from_samples(data)
    return d, ContentionModel(p_s=p_s, max_range=L)


def any_point(rng: np.random.Generator):
    """One randomized (headway, ContentionModel) whose gap law does not scale
    with the range: L from 0.5 to 300 m, mean gaps from 0.5 to about 280 m."""
    family = FAMILIES[rng.integers(0, len(FAMILIES))]
    L = float(rng.uniform(0.5, 300.0))
    p_s = float(rng.uniform(0.05, 0.95))
    if family == "exponential":
        d = ExponentialHeadway(rate=float(rng.uniform(0.01, 2.0)))
    elif family == "uniform":
        lo = float(rng.uniform(0.0, 100.0))
        d = UniformHeadway(low=lo, high=float(rng.uniform(lo + 0.5, lo + 100.0)))
    elif family == "lognormal":
        d = LognormalHeadway(log_mean=float(rng.uniform(-0.5, 4.5)),
                             log_sd=float(rng.uniform(0.1, 1.5)))
    elif family == "deterministic":
        d = DeterministicHeadway(spacing=float(rng.uniform(0.5, 200.0)))
    else:
        n = int(rng.integers(50, 400))
        d = EmpiricalHeadway.from_samples(rng.exponential(rng.uniform(0.5, 100.0), n))
    return d, ContentionModel(p_s=p_s, max_range=L)


def sandwich_violations(n_points: int, seed: int, point=random_point) -> list[str]:
    """Run the bounds sandwich over n_points draws of point(rng); return violations."""
    from vanetprop import distance_stats

    rng = np.random.default_rng(seed)
    bad = []
    for k in range(n_points):
        d, m = point(rng)
        st = distance_stats(d, m)
        mtol = 1e-9 * max(1.0, abs(st.mean))
        vtol = 1e-9 * max(1.0, abs(st.var_paper))
        if not (st.mean_lower <= st.mean + mtol and st.mean <= st.mean_upper + mtol):
            bad.append(f"point {k}: mean {st.mean} outside "
                       f"[{st.mean_lower}, {st.mean_upper}] for {d!r}, {m!r}")
        if not (st.var_lower <= st.var_paper + vtol and st.var_paper <= st.var_upper + vtol):
            bad.append(f"point {k}: var_paper {st.var_paper} outside "
                       f"[{st.var_lower}, {st.var_upper}] for {d!r}, {m!r}")
    return bad
