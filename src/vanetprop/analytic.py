"""The compound-geometric core of the model, and the contention channel.

A message starts at vehicle 0 and hops down the chain. A hop over gap H
succeeds with probability p(H), independently of every other hop; the
first failed hop ends the process. D is the total distance covered, N
the number of vehicles reached. Under any hop kernel p, D is a geometric
compound sum. `ContentionModel` (here, p(tau) = p_s 1{tau <= L}) and
`FadingModel` (fading module) each supply their hop law q = E[p(H)],
1 - q, m1 = E[H p(H)] and m2 = E[H^2 p(H)], and the simulator's hop
test. One core turns the law into E[D] = m1/(1-q), the renewal variance
m2/(1-q) + E[D]^2 and E[N] = q/(1-q), and raises DegenerateProcessError
where 1 - q = 0.

`distance_stats(d, model)` returns one record for either model: the
core's closed forms, and the printed variance and bounds the model
supplies (`paper_forms`; fading has no bounds). `sweep_stats` takes many
points, and lets each model class settle their hop laws together.

Two variance routes are exposed on purpose: `variance_paper` evaluates
the printed second-moment identity, whose cross term drops the square of
the conditional mean; `variance_renewal` is the compound-geometric
variance. They disagree whenever propagation can continue past one hop;
simulation arbitrates (see the mc module). Bounds enclose the printed
variant, which is what they were derived against.

`cdf` is the one CDF solver, for either model: it solves the renewal
equation F_D(s) = 1 - q + int_0^s f_H(t) p(t) F_D(s - t) dt with the hop
kernel f_H p = p(0) f_H shape on [0, upper] from the model's
`hop_kernel`, and `quad` marches its lag weights. `solve_renewal_cdf`
is `cdf` under a contention model; `solve_printed_cdf` evaluates the
form printed in the source theorem, unrepaired, for discrepancy
reporting only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateProcessError, NumericError, ValidationError
from .headway import HeadwayDistribution
from .quad import CdfCurve, _lag_weights, _march, _repair, _snap_index

__all__ = [
    "ContentionModel",
    "DistanceStats",
    "hop_failure_prob",
    "mean_distance",
    "mean_distance_bounds",
    "variance_paper",
    "variance_renewal",
    "variance_bounds",
    "mean_cluster_size",
    "cdf",
    "distance_stats",
    "sweep_stats",
    "solve_renewal_cdf",
    "solve_printed_cdf",
]


@dataclass(frozen=True)
class ContentionModel:
    """Constant per-hop success probability p_s, hard reception cutoff max_range (m)."""

    p_s: float
    max_range: float

    def __post_init__(self):
        if not (isinstance(self.p_s, (int, float)) and 0.0 <= self.p_s <= 1.0):
            raise ValidationError(f"p_s must lie in [0, 1], got {self.p_s!r}")
        if not (isinstance(self.max_range, (int, float)) and math.isfinite(self.max_range)) \
                or self.max_range <= 0:
            raise ValidationError(f"max_range must be finite and > 0, got {self.max_range!r}")

    def hop_law(self, d: HeadwayDistribution) -> tuple[float, float, float, float]:
        """(q, 1 - q, m1, m2) for p(tau) = p_s 1{tau <= L}: q = p_s F_H(L), m_k = p_s I_k(L)."""
        L = self.max_range
        q = self.p_s * d.cdf(L)
        return (q, 1.0 - q, self.p_s * d.truncated_moment(1, L),
                self.p_s * d.truncated_moment(2, L))

    def hop_kernel(self, d: HeadwayDistribution, grid_step: float, max_s: float):
        """p_s f_H on [0, L]: (p(0) = p_s, shape 1, upper L, mass F_H(L) as a callable),
        once the grid resolves L: grid_step <= L/10 and max_s >= L."""
        L = self.max_range
        if not grid_step <= L / 10.0:
            raise ValidationError(
                f"grid_step must satisfy grid_step <= max_range/10, got {grid_step!r}")
        if not max_s >= L:
            raise ValidationError(f"max_s must be >= max_range, got {max_s!r}")
        return self.p_s, lambda tau: 1.0, L, lambda: d.cdf(L)

    def hop_succeeds(self, tau: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Simulated hop outcomes: gap within range and uniform draw u below p_s."""
        return (tau <= self.max_range) & (u < self.p_s)

    def paper_forms(self, d: HeadwayDistribution, r: _Renewal) -> tuple[float, ...]:
        """(var_paper, mean_lower, mean_upper, var_lower, var_upper) at d, given the
        closed forms r (formulas on the per-quantity functions)."""
        L, p_s = self.max_range, self.p_s
        mu = d.mean()
        gap = L - mu
        bracket = 0.5 * (math.sqrt(d.variance() + gap * gap) - gap)
        F_L = d.cdf(L)
        tail = 1.0 - F_L
        var_lower = r.mean * r.mean * p_s * tail / r.fail
        return (r.second + r.mean * r.mean * (p_s * tail / r.fail),
                max(0.0, p_s * (mu - bracket - L * tail)) / r.fail,
                p_s * (mu - L + L * F_L) / r.fail,
                var_lower,
                (p_s * L * mu - p_s * L * L * tail) / r.fail + var_lower)

    @staticmethod
    def hop_laws(points: list) -> list:
        """None for each point: a contention hop law is closed, with nothing to share."""
        return [None] * len(points)


class _Renewal(NamedTuple):
    """The compound-geometric law of D at one (headway, model) point."""

    q: float             # E[p(H)], the probability that a hop succeeds
    fail: float          # 1 - q, in the model's most accurate form
    second: float        # m2 / (1 - q), the leading term of every variance form
    mean: float          # E[D] = m1 / (1 - q)
    var_renewal: float   # m2 / (1 - q) + E[D]^2
    cluster_size: float  # E[N] = q / (1 - q)


def _renewal(d: HeadwayDistribution, m) -> _Renewal:
    """m's hop law under d and the closed forms both models share."""
    return _compound(*m.hop_law(d))


def _compound(q: float, fail: float, m1: float, m2: float) -> _Renewal:
    """The closed forms of the hop law (q, 1 - q, m1, m2); the one degeneracy check."""
    if fail <= 0.0:
        raise DegenerateProcessError(
            f"hop failure probability 1 - q = {fail!r}: every hop succeeds and "
            "the propagation distance diverges"
        )
    mean = m1 / fail
    second = m2 / fail
    return _Renewal(q, fail, second, mean, second + mean * mean, q / fail)


def hop_failure_prob(d: HeadwayDistribution, m) -> float:
    """1 - q = P(one hop fails), for either channel model; 0 when D diverges."""
    return m.hop_law(d)[1]


def mean_distance(d: HeadwayDistribution, m) -> float:
    """E[D] = E[H p(H)] / (1 - q), for either channel model."""
    return _renewal(d, m).mean


def mean_distance_bounds(d: HeadwayDistribution, m: ContentionModel) -> tuple[float, float]:
    """Distribution-free bounds on E[D] from (mu_H, sigma_H, F_H(L)) only.

    lower = max(0, p_s [mu_H - b - L (1 - F_H(L))]) / (1 - q),
            b = (sqrt(sigma_H^2 + (L-mu_H)^2) - (L-mu_H)) / 2
    upper = p_s (mu_H - L + L F_H(L)) / (1 - q)

    Both hold for every headway distribution and every L. E[D] is
    p_s E[H 1{H <= L}] / (1 - q) = p_s (mu_H - E[H 1{H > L}]) / (1 - q), and
    E[H 1{H > L}] = E[(H - L)+] + L (1 - F_H(L)). The lower bound takes b,
    the largest E[(H - L)+] of any law with this mean and variance (Scarf's
    bound), for the first term; the upper bound takes 0.
    """
    st = distance_stats(d, m)
    return st.mean_lower, st.mean_upper


def variance_paper(d: HeadwayDistribution, m) -> float:
    """Printed variance identity, for either channel model. Contention:

    Var[D] = p_s I2(L)/(1-q) + mu_D^2 * p_s (1 - F_H(L))/(1-q)

    The second term vanishes whenever F_H(L) = 1, which makes this
    variant systematically low once multi-hop propagation matters; kept
    verbatim so simulation can arbitrate against `variance_renewal`.
    Fading prints E[H^2 p(H)]/(1-q), with no mean-square term at all.
    """
    return distance_stats(d, m).var_paper


def variance_renewal(d: HeadwayDistribution, m) -> float:
    """Compound-geometric variance: Var[D] = E[H^2 p(H)]/(1-q) + mu_D^2.

    D is a sum of N iid accepted gaps T with N geometric; the law of
    total variance collapses to E[N] E[T^2] + (Var N - E N) E[T]^2
    = E[H^2 p(H)]/(1-q) + mu_D^2. Matches simulation, for either
    channel model.
    """
    return _renewal(d, m).var_renewal


def variance_bounds(d: HeadwayDistribution, m: ContentionModel) -> tuple[float, float]:
    """Bounds enclosing `variance_paper` (unconditionally valid):

    lower = mu_D^2 p_s (1 - F_H(L)) / (1 - q)
    upper = [p_s L mu_H - p_s L^2 (1 - F_H(L))] / (1 - q) + lower
    """
    st = distance_stats(d, m)
    return st.var_lower, st.var_upper


def mean_cluster_size(d: HeadwayDistribution, m) -> float:
    """E[N] = q / (1 - q): expected receivers (source excluded), either model."""
    return _renewal(d, m).cluster_size


def _solver_setup(d: HeadwayDistribution, m, grid_step: float, max_s: float):
    """(1 - q, grid size, m's hop kernel), after the grid's, m's and the degeneracy checks."""
    if not grid_step > 0.0:
        raise ValidationError(f"grid_step must be > 0, got {grid_step!r}")
    kernel = m.hop_kernel(d, grid_step, max_s)
    if not (math.isfinite(max_s) and max_s >= grid_step):
        raise ValidationError(f"max_s must be finite and >= grid_step, got {max_s!r}")
    return _renewal(d, m).fail, int(math.floor(max_s / grid_step + 1e-9)) + 1, kernel


def cdf(d: HeadwayDistribution, m, grid_step: float, max_s: float) -> CdfCurve:
    """F_D on [0, max_s] for either channel model: F_D(0) = (1 - q) / (1 - p(0) P(H = 0)),
    which is 1 - q unless gaps can be exactly 0; later grid values by implicit
    trapezoidal marching against the lag weights of the model's hop kernel f_H p,
    then monotonicity repair (decreases below 1e-6 clamp, anything larger raises)."""
    fail, n, (coef, shape, upper, mass) = _solver_setup(d, m, grid_step, max_s)
    w, dw = _lag_weights(d, shape, mass, coef, grid_step, upper)
    const = np.full(n, fail)
    # row 0 of the renewal equation, F_D(0) = 1 - q + p(0) P(H = 0) F_D(0):
    # w[0] + dw[0] is the kernel's weight on zero gaps
    const[0] = fail / (1.0 - coef * (w[0] + dw[0]))
    return CdfCurve(grid_step, max_s, _repair(_march(w, dw, coef, const, clamp=True)))


def solve_renewal_cdf(headway, p_s: float, max_range: float,
                      grid_step: float, max_s: float) -> CdfCurve:
    """`cdf` under ContentionModel(p_s, max_range)."""
    return cdf(headway, ContentionModel(p_s, max_range), grid_step, max_s)


def solve_printed_cdf(headway, p_s: float, max_range: float,
                      grid_step: float, max_s: float) -> np.ndarray:
    """Evaluate the piecewise CDF recursion exactly as printed in the source.

    For 0 < s <= L the printed middle case subtracts (1 + p_s) F_H(s) and
    carries no p_s on the integral; for s > L the integral convolves
    against F_D where the derivation calls for the tail of F_D. The output
    is raw and unrepaired (it goes negative and non-monotone for most
    inputs); it exists so the discrepancy against the corrected form can
    be reported, never for downstream use.
    """
    m = ContentionModel(p_s, max_range)
    fail, n, (_, shape, upper, mass) = _solver_setup(headway, m, grid_step, max_s)
    K = min(int(_snap_index(max_range / grid_step)[0]), n - 1)
    F_H = headway.cdf(np.append(np.arange(1, K + 1) * grid_step, max_range))
    const = np.full(n, 1.0 - F_H[-1])
    const[0] = fail
    const[1:K + 1] = fail - (1.0 + p_s) * F_H[:-1]
    # same lag weights as the corrected solver; only the constant term
    # and the missing p_s factor on the integral differ
    w, dw = _lag_weights(headway, shape, mass, 1.0, grid_step, upper)
    try:
        return _march(w, dw, 1.0, const)
    except NumericError as exc:  # without clamp, only a singular step raises
        raise NumericError(f"the printed CDF recursion is singular here: {exc}") from exc


@dataclass(frozen=True)
class DistanceStats:
    """Every closed form at one (headway, model) point, for either channel model:
    q_hop = q, cluster_size = E[N]; the printed variance and the bounds are the
    model's own (`paper_forms`, in field order), the bounds None under fading."""

    q_hop: float
    mean: float
    var_renewal: float
    cluster_size: float
    var_paper: float
    mean_lower: float | None = None
    mean_upper: float | None = None
    var_lower: float | None = None
    var_upper: float | None = None


def distance_stats(d: HeadwayDistribution, m) -> DistanceStats:
    """Every closed form at one (headway, model) point, from one hop law."""
    return _stats(d, m, _renewal(d, m))


def _stats(d: HeadwayDistribution, m, r: _Renewal) -> DistanceStats:
    """The record of the closed forms r of m's hop law under d."""
    return DistanceStats(r.q, r.mean, r.var_renewal, r.cluster_size, *m.paper_forms(d, r))


def sweep_stats(points: list) -> list:
    """`distance_stats(d, m)` at each (d, m) of points, in order, or in its place
    the ValidationError, DegenerateProcessError or NumericError it raises.

    A point whose hop law its model class settles with others (`hop_laws`)
    takes its record from that law; every other point goes through
    `distance_stats`, so that it meets its own error.
    """
    laws = [None] * len(points)
    for kind in dict.fromkeys(type(m) for _, m in points):
        mine = [i for i, (_, m) in enumerate(points) if type(m) is kind]
        for i, law in zip(mine, kind.hop_laws([points[i] for i in mine])):
            laws[i] = law
    out = []
    for (d, m), law in zip(points, laws):
        try:
            out.append(distance_stats(d, m) if law is None else _stats(d, m, _compound(*law)))
        except (ValidationError, DegenerateProcessError, NumericError) as exc:
            out.append(exc)
    return out
