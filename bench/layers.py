"""Per-layer metrics from one traced pass.

A span's self time is its duration minus the part of its interval that
its child spans cover (children on pool threads overlap, so the union is
taken, not the sum). A layer's time `<layer>.s` sums its outermost spans,
those whose parent is in another layer.
"""

from __future__ import annotations

# the families the workloads sample; each gets its own time and rate
FAMILIES = ("exponential", "lognormal", "empirical", "uniform")


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def from_trace(trace: dict) -> dict[str, float]:
    """Counts, busy times and rates of the cli, mc, headway, quad, analytic
    and fading layers for one traced pass."""
    spans = trace["spans"]  # [name, op, parent, t0, t1, info]
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[2] is not None:
            children.setdefault(s[2], []).append((s[3], s[4]))

    def layer(i):
        return spans[i][0].split(".")[0]

    def ancestors(i):
        p = spans[i][2]
        while p is not None:
            yield p
            p = spans[p][2]

    dur, self_name, self_layer, outer = {}, {}, {}, {}
    calls: dict[str, int] = {}
    info_sum: dict[str, float] = {}
    for i, (name, _op, parent, t0, t1, info) in enumerate(spans):
        lay = layer(i)
        d = t1 - t0
        calls[name] = calls.get(name, 0) + 1
        dur[name] = dur.get(name, 0.0) + d
        self_d = d - _covered(t0, t1, children.get(i, []))
        self_layer[lay] = self_layer.get(lay, 0.0) + self_d
        self_name[name] = self_name.get(name, 0.0) + self_d
        if parent is None or layer(parent) != lay:
            outer[lay] = outer.get(lay, 0.0) + d
        for key, value in (info or {}).items():
            k = f"{name}:{key}"
            info_sum[k] = info_sum.get(k, 0.0) + float(value)
            if key == "trials" and info.get("ecdf"):
                info_sum["mc.ecdf_trials"] = info_sum.get("mc.ecdf_trials", 0.0) + value

    def n(name):
        return calls.get(name, 0)

    m: dict[str, float] = {}
    m["cli.ops"] = n("cli.main")
    m["cli.self_s"] = self_layer.get("cli", 0.0)

    m["mc.run.calls"] = n("mc.run")
    m["mc.run.s"] = dur.get("mc.run", 0.0)
    m["mc.run.self_s"] = self_name.get("mc.run", 0.0)
    m["mc.trials"] = info_sum.get("mc.run:trials", 0.0)
    m["mc.ecdf_trials"] = info_sum.get("mc.ecdf_trials", 0.0)
    draws = sum(v for k, v in info_sum.items() if k.startswith("headway.sample."))
    m["mc.draws"] = draws
    m["mc.rounds"] = sum(c for k, c in calls.items() if k.startswith("headway.sample."))
    m["mc.draws_per_s"] = _ratio(draws, m["mc.run.s"])
    m["mc.compare.calls"] = n("mc.compare")

    for f in FAMILIES:
        s = dur.get(f"headway.sample.{f}", 0.0)
        fd = info_sum.get(f"headway.sample.{f}:draws", 0.0)
        m[f"headway.sample.s.{f}"] = s
        m[f"headway.draws.{f}"] = fd
        m[f"headway.draws_per_s.{f}"] = _ratio(fd, s)
    for attr in ("pdf", "cdf", "truncated_moment"):
        m[f"headway.{attr}.calls"] = trace["counts"].get(f"headway.{attr}", 0)

    m["quad.integrate.calls"] = n("quad.integrate")
    m["quad.integrate.s"] = dur.get("quad.integrate", 0.0)
    m["quad.integrate.evals"] = info_sum.get("quad.integrate:evals", 0.0)
    m["quad.evals_per_s"] = _ratio(m["quad.integrate.evals"], m["quad.integrate.s"])
    m["quad.solve_renewal_cdf.s"] = dur.get("quad.solve_renewal_cdf", 0.0)
    m["quad.solve_printed_cdf.s"] = dur.get("quad.solve_printed_cdf", 0.0)
    m["quad.grid_points"] = sum(info_sum.get(f"quad.solve_{k}_cdf:grid_points", 0.0)
                                for k in ("renewal", "printed"))
    m["quad.march_macs"] = sum(info_sum.get(f"quad.solve_{k}_cdf:march_macs", 0.0)
                               for k in ("renewal", "printed"))
    m["quad.macs_per_s"] = _ratio(m["quad.march_macs"], m["quad.solve_renewal_cdf.s"]
                                  + m["quad.solve_printed_cdf.s"])

    m["analytic.calls"] = sum(c for k, c in calls.items() if k.startswith("analytic."))
    m["analytic.s"] = outer.get("analytic", 0.0)
    m["analytic.self_s"] = self_layer.get("analytic", 0.0)
    m["analytic.distance_stats.calls"] = n("analytic.distance_stats")
    m["analytic.cdf.s"] = dur.get("analytic.cdf", 0.0)

    points = n("fading.fading_stats")
    in_points = sum(1 for i, s in enumerate(spans) if s[0] == "quad.integrate"
                    and any(spans[p][0] == "fading.fading_stats" for p in ancestors(i)))
    m["fading.fading_stats.calls"] = points
    m["fading.point_s"] = _ratio(dur.get("fading.fading_stats", 0.0), points)
    m["fading.hop_failure_prob.calls"] = n("fading.hop_failure_prob")
    m["fading.integrals_per_point"] = _ratio(in_points, points)
    m["fading.self_s"] = self_layer.get("fading", 0.0)
    return m
