"""Spans and counts around vanetprop's public functions, from outside the program.

Each function is replaced where it is looked up: a module attribute that
callers resolve at call time (`mc.run` for `cli`, `quad.integrate` for
`integrate_semi_infinite` and the headway fallback), a name a module
imported (`analytic.solve_renewal_cdf`, `cli.solve_printed_cdf`,
`fading.integrate_semi_infinite`, `mc.hop_failure_prob`), or a headway
class method. Nothing under src/ changes.

Timed functions record a span: name, op id, parent span, start, end and
an optional size. Spans stay in memory until `dump`. Per-call functions
(`pdf`, `cdf`, `truncated_moment`) are only counted, so the overhead
stays bounded.

Simulator blocks run on pool threads that have no open span of their
own; their spans take as parent the span open on the main thread (the
`mc.run` that owns the pool).
"""

from __future__ import annotations

import itertools
import math
import threading
import time

from vanetprop import analytic, cli, fading, headway, mc, quad

_FAMILIES = {
    headway.ExponentialHeadway: "exponential",
    headway.UniformHeadway: "uniform",
    headway.LognormalHeadway: "lognormal",
    headway.DeterministicHeadway: "deterministic",
    headway.EmpiricalHeadway: "empirical",
}


def _solve_size(args, kwargs, result) -> dict:
    """Grid points and the direct march's multiply-adds, computed from the arguments."""
    d, _p_s, max_range, step, max_s = args
    n = int(math.floor(max_s / step + 1e-9)) + 1
    k = int(round(max_range / step))
    # sum over j = 1..n-1 of min(j, K): one dot of length ~min(j, K) per grid point
    m = min(n - 1, k)
    macs = m * (m + 1) // 2 + (n - 1 - m) * k
    return {"grid_points": n, "march_macs": macs if d.has_density else 0}


def _run_size(args, kwargs, result) -> dict:
    cfg = args[0]
    return {"trials": cfg.trials, "ecdf": cfg.ecdf_grid is not None}


def _integrate_size(args, kwargs, result) -> dict:
    return {"evals": result.evaluations}


class Tracer:
    """Installs the wrappers; collects spans and counts for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, op, parent span, t0, t1, info]
        self.op: int | None = None
        self.patched: list[str] = []
        self._counts: dict[str, itertools.count] = {}
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._main = threading.main_thread()

    def _stack(self) -> list[list]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, fn, name: str, info=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            span = [name, tracer.op, parent, time.perf_counter(), 0.0, None]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
                # list.append is atomic, so pool threads may record concurrently
                tracer.spans.append(span)
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        return traced

    def counted(self, fn, name: str):
        # next() on an itertools.count is one C call, so the count is exact
        # even when pool threads call concurrently
        counter = self._counts.setdefault(name, itertools.count())

        def count_call(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        return count_call

    def _patch(self, owner, attr: str, wrapper, site: str) -> None:
        setattr(owner, attr, wrapper)
        self.patched.append(site)

    def install(self) -> None:
        """Replace every traced function at its lookup sites."""
        for attr in ("run", "compare"):
            self._patch(mc, attr, self.timed(getattr(mc, attr), f"mc.{attr}",
                                             _run_size if attr == "run" else None),
                        f"mc.{attr}")
        for attr in ("distance_stats", "mean_distance", "mean_distance_bounds",
                     "variance_paper", "variance_renewal", "variance_bounds",
                     "mean_cluster_size", "cdf"):
            self._patch(analytic, attr, self.timed(getattr(analytic, attr),
                                                   f"analytic.{attr}"), f"analytic.{attr}")
        for attr in ("fading_stats", "hop_failure_prob", "mean_distance_fading",
                     "variance_fading_paper", "variance_fading_renewal"):
            self._patch(fading, attr, self.timed(getattr(fading, attr), f"fading.{attr}"),
                        f"fading.{attr}")
        self._patch(mc, "hop_failure_prob",
                    self.timed(mc.hop_failure_prob, "fading.hop_failure_prob"),
                    "mc.hop_failure_prob")
        self._patch(fading, "integrate_semi_infinite",
                    self.timed(fading.integrate_semi_infinite,
                               "quad.integrate_semi_infinite"),
                    "fading.integrate_semi_infinite")
        self._patch(quad, "integrate",
                    self.timed(quad.integrate, "quad.integrate", _integrate_size),
                    "quad.integrate")
        self._patch(analytic, "solve_renewal_cdf",
                    self.timed(analytic.solve_renewal_cdf, "quad.solve_renewal_cdf",
                               _solve_size), "analytic.solve_renewal_cdf")
        self._patch(cli, "solve_printed_cdf",
                    self.timed(cli.solve_printed_cdf, "quad.solve_printed_cdf",
                               _solve_size), "cli.solve_printed_cdf")
        for cls, family in _FAMILIES.items():
            self._patch(cls, "sample",
                        self.timed(cls.sample, f"headway.sample.{family}",
                                   lambda a, k, r: {"draws": k.get("size") or 1}),
                        f"headway.{cls.__name__}.sample")
            for attr in ("pdf", "cdf", "truncated_moment"):
                self._patch(cls, attr, self.counted(getattr(cls, attr), f"headway.{attr}"),
                            f"headway.{cls.__name__}.{attr}")

    def dump(self) -> dict:
        """Spans with integer ids and parents, plus the counts."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        rows = [[s[0], s[1], ids.get(id(s[2])) if s[2] is not None else None,
                 s[3], s[4], s[5]] for s in self.spans]
        # next() returns the number of earlier calls
        counts = {k: next(c) for k, c in self._counts.items()}
        return {"patched": self.patched, "spans": rows, "counts": counts}

