"""The compound-geometric core of the model, and the contention channel.

A message starts at vehicle 0 and hops down the chain. A hop over gap H
succeeds with probability p(H), independently of every other hop; the
first failed hop ends the process. D is the total distance covered, N
the number of vehicles reached. Under any hop kernel p, D is a geometric
compound sum, so a `ChannelModel` is its kernel: it gives p (`success`),
the stack (1 - p, tau p, tau^2 p) and its printed forms, and the core
derives the rest. Its hop law, q = E[p(H)], 1 - q, m1 = E[H p(H)] and
m2 = E[H^2 p(H)], is one stacked expectation under the gap law
(`_expect`, whose integrand `_scaled` builds for one point or for a
sweep's stack); its CDF kernel is f_H p on [0, max_s]; its simulated hop
succeeds where u < p(tau). `ContentionModel` (p(tau) = p_s 1{tau <= L})
overrides all three with closed forms instead. The core turns the law into
E[D] = m1/(1-q), the renewal variance m2/(1-q) + E[D]^2 and
E[N] = q/(1-q), and raises DegenerateProcessError where 1 - q = 0.

`sweep_columns` evaluates many points as columns: each point's hop law
(one `integrate` of a chunk's stack held to its first level, each point
kept where its own stop rule passes: `_first_level_laws`) and the floats its
printed forms read, point by point, then every closed form, with the
model's printed variance and bounds (`paper_forms`; fading has no bounds),
once per model class in numpy arithmetic that rounds as Python floats do.
`sweep_stats` gives one `DistanceStats` record per point, and
`distance_stats(d, m)` is its one-point case.

Two variance routes are exposed on purpose: `variance_paper` evaluates
the printed second-moment identity, whose cross term drops the square of
the conditional mean; `variance_renewal` is the compound-geometric
variance. They disagree whenever propagation can continue past one hop;
simulation arbitrates (see the mc module). Bounds enclose the printed
variant, which is what they were derived against.

`cdf` is the one CDF solver: it solves the renewal equation
F_D(s) = 1 - q + int_0^s f_H(t) p(t) F_D(s - t) dt with the model's
`hop_kernel`, f_H p = p(0) f_H shape on [0, upper], and `quad` marches
its lag weights. `solve_renewal_cdf` is `cdf` under a contention model;
`solve_printed_cdf` evaluates the form printed in the source theorem,
unrepaired, for discrepancy reporting only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateProcessError, NumericError, ValidationError, _check_real
from .headway import HeadwayDistribution
from .quad import (_START_PANELS, CdfCurve, _grid_points, _lag_weights, _mapped, _march,
                   _passes, _repair, _snap_index, integrate, integrate_semi_infinite)

__all__ = [
    "ChannelModel",
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
    "sweep_columns",
    "solve_renewal_cdf",
    "solve_printed_cdf",
]

# headway densities are smooth; push the quadrature well below the 1e-9
# closed-form acceptance tolerance
_REL_TOL = 1e-11

# sweep points whose first quadrature levels are evaluated together: a level
# holds 3 x 480 values per point, and chunks keep a long sweep's arrays small
_CHUNK = 16


class ChannelModel:
    """A per-hop success kernel p(tau), and what the core derives from it.

    A model gives `success(tau)`, p at an array of gaps or at one float;
    `_hop_stack(t)`, the stack (1 - p, t p, t^2 p) at an array of gaps t;
    and `paper_forms(x, r)`, its printed variance and bounds over many points.
    That static method reads only columns: r, the points' closed forms, and x,
    the floats of each point's hop law past (q, 1 - q, m1, m2), then those of
    its `_paper_inputs`. One that overrides the three below needs only that.
    """

    def hop_law(self, d: HeadwayDistribution) -> tuple[float, ...]:
        """(q, 1 - q, E[H p(H)], E[H^2 p(H)]): one stacked expectation under d. An
        override may append floats of the law that its `paper_forms` reads."""
        return _law(_expect(d, self._hop_stack))

    def hop_kernel(self, d: HeadwayDistribution, grid_step: float, max_s: float):
        """f_H p on [0, max_s]: (1, shape p, upper max_s, mass E[p(H); H <= max_s]
        as a callable). No range cutoff, so no range-relative grid check."""
        # a quadrature can step over mass but not invent it: a window of equal panels
        # misses a narrow density, the map at a heavy law's mean a kernel far below it
        return 1.0, self.success, max_s, lambda: max(
            float(_expect(d, self.success, max_s)),
            float(_expect(d, lambda t: self.success(t) * (t <= max_s))))

    def hop_succeeds(self, tau: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Simulated hop outcomes: uniform draw u below p(tau)."""
        return u < self.success(tau)

    def _paper_inputs(self, d: HeadwayDistribution) -> tuple:
        return ()  # paper_forms reads no float of d beyond the hop law


@dataclass(frozen=True)
class ContentionModel(ChannelModel):
    """Constant per-hop success probability p_s, hard reception cutoff max_range (m)."""

    p_s: float
    max_range: float

    def __post_init__(self):
        _check_real("p_s", self.p_s, 0.0, 1.0)
        _check_real("max_range", self.max_range, 0.0, strict=True)

    def hop_law(self, d: HeadwayDistribution) -> tuple[float, ...]:
        """(q, 1 - q, m1, m2, F_H(L)) for p(tau) = p_s 1{tau <= L}: q = p_s F_H(L) and
        m_k = p_s I_k(L); `paper_forms` reads F_H(L) too, so d.cdf runs once. L is
        checked finite and > 0, so I_k takes the family's closed form unchecked."""
        L = self.max_range
        F_L = d.cdf(L)
        q = self.p_s * F_L
        return (q, 1.0 - q, self.p_s * d._truncated_moment(1, L),
                self.p_s * d._truncated_moment(2, L), F_L)

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

    def _paper_inputs(self, d: HeadwayDistribution) -> tuple:
        """(p_s, L, mu_H, sigma_H^2) at d; the hop law gave F_H(L)."""
        return self.p_s, self.max_range, d.mean(), d.variance()

    @staticmethod
    def paper_forms(x: np.ndarray, r: _Renewal) -> tuple[np.ndarray, ...]:
        """(var_paper, mean_lower, mean_upper, var_lower, var_upper) from the columns x
        of F_H(L) and `_paper_inputs`, and r; max(0, .) takes nan to 0, as max does."""
        F_L, p_s, L, mu, var = x
        gap = L - mu
        bracket = 0.5 * (np.sqrt(var + gap * gap) - gap)
        tail = 1.0 - F_L
        lower = p_s * (mu - bracket - L * tail)
        var_lower = r.mean * r.mean * p_s * tail / r.fail
        return (r.second + r.mean * r.mean * (p_s * tail / r.fail),
                np.where(lower > 0.0, lower, 0.0) / r.fail,
                p_s * (mu - L + L * F_L) / r.fail,
                var_lower,
                (p_s * L * mu - p_s * L * L * tail) / r.fail + var_lower)


class _Renewal(NamedTuple):
    """The compound-geometric law of D at one point (floats) or at many (columns)."""

    q: float             # E[p(H)], the probability that a hop succeeds
    fail: float          # 1 - q, in the model's most accurate form
    second: float        # m2 / (1 - q), the leading term of every variance form
    mean: float          # E[D] = m1 / (1 - q)
    var_renewal: float   # m2 / (1 - q) + E[D]^2
    cluster_size: float  # E[N] = q / (1 - q)


def _checked(law: tuple) -> tuple:
    """The hop law (q, 1 - q, ...) once 1 - q > 0 or nan; the one degeneracy check."""
    if law[1] <= 0.0:
        raise DegenerateProcessError(
            f"hop failure probability 1 - q = {law[1]!r}: every hop succeeds and "
            "the propagation distance diverges")
    return law


def _renewal(d: HeadwayDistribution, m) -> _Renewal:
    """m's hop law under d and the closed forms both models share."""
    return _compound(*_checked(m.hop_law(d))[:4])


def _compound(q, fail, m1, m2) -> _Renewal:
    """The closed forms of a `_checked` hop law (q, 1 - q, m1, m2), as floats or as
    columns: the same operations either way."""
    mean = m1 / fail
    second = m2 / fail
    return _Renewal(q, fail, second, mean, second + mean * mean, q / fail)


def _expect(d: HeadwayDistribution, g: Callable[[np.ndarray], np.ndarray],
            upper: float = math.inf):
    """E[g(H); H <= upper] for g mapping an array of gaps to values (a float
    result), or to an (m, gaps) stack (an (m,) array): one weighted sum over the
    atoms of an atomic family, else one adaptive quadrature of the whole stack
    over the support [lo, hi] of the density. A finite [lo, min(hi, upper)] is
    integrated as it stands, so its edges are panel edges; an infinite one is
    mapped at the law's scale, tau = lo + mean * x, so that its mass sits near
    x ~ 1 of the semi-infinite map."""
    at = d.atoms()
    if at is not None:
        values, weights = at
        keep = values <= upper
        return g(values[keep]) @ weights[keep]

    lo, hi = d.support()
    hi = min(hi, upper)
    if hi < math.inf:
        return integrate(lambda t: d.pdf(t) * g(t), lo, max(lo, hi), rel_tol=_REL_TOL).value
    return integrate_semi_infinite(_scaled([(d, g)]), 0.0, rel_tol=_REL_TOL).value


def _scaled(pairs: list):
    """x -> s f_H(t) g(t) at t = lo + s x for each (d, g) of pairs, with lo the lower
    edge of d's support and s = d.mean(): E[g(H)] as an integral over x in [0, inf),
    at the law's scale. One pair gives g's values as they are, more stack theirs
    along the first axis; each distinct law's density is evaluated once a call."""
    scales = {id(d): (d, d.support()[0], d.mean()) for d, _ in pairs}

    def f(x):
        at = {}  # id of a law -> its (t, s f_H(t)) at x
        for key, (d, lo, s) in scales.items():
            t = lo + s * x
            at[key] = t, s * d.pdf(t)
        ys = [sf * g(t) for (t, sf), g in ((at[id(d)], g) for d, g in pairs)]
        return ys[0] if len(ys) == 1 else np.concatenate(ys)

    return f


def _law(stack: np.ndarray) -> tuple[float, float, float, float]:
    """(q, 1 - q, m1, m2) from the stacked expectation (1 - q, m1, m2)."""
    fail, m1, m2 = stack.tolist()
    return 1.0 - fail, fail, m1, m2


def _first_level_laws(points: list) -> list:
    """m.hop_law(d) for each (d, m) of points whose quadrature stops on its first
    level, None for the others. The points whose m keeps `ChannelModel.hop_law` and
    whose d has a density on [lo, inf) are taken _CHUNK at a time, in order: one
    `integrate` of their stacked integrands, each the one `hop_law` integrates, held
    to its first level by max_panels. Where some component does not stop there, the
    NumericError carries the level's sums, and a point keeps its law where its own
    components pass the stop rule. A non-finite integrand leaves the chunk to the
    points alone.
    """
    laws = [None] * len(points)
    mapped = [i for i, (d, m) in enumerate(points) if type(m).hop_law is ChannelModel.hop_law
              and d.atoms() is None and d.support()[1] == math.inf]
    for k in range(0, len(mapped), _CHUNK):
        chunk = mapped[k:k + _CHUNK]
        try:
            stack = _scaled([(points[i][0], points[i][1]._hop_stack) for i in chunk])
            res = integrate(_mapped(stack, 0.0), 0.0, 1.0, rel_tol=_REL_TOL,
                            max_panels=_START_PANELS)
            value, err = res.value, res.abs_error_estimate
        except NumericError as exc:
            if exc.estimate is None:
                continue
            value, err = exc.estimate, exc.error_estimate
        except ValidationError:
            continue
        done = _passes(value, err, _REL_TOL)[0].reshape(len(chunk), -1).all(axis=1)
        for i, v, ok in zip(chunk, value.reshape(len(chunk), -1), done):
            laws[i] = _law(v) if ok else None
    return laws


def hop_failure_prob(d: HeadwayDistribution, m) -> float:
    """1 - q = P(one hop fails), for any channel model; 0 when D diverges."""
    return m.hop_law(d)[1]


def mean_distance(d: HeadwayDistribution, m) -> float:
    """E[D] = E[H p(H)] / (1 - q), for any channel model."""
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
    """Printed variance identity, for any channel model. Contention:

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
    = E[H^2 p(H)]/(1-q) + mu_D^2. Matches simulation, for any
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
    """E[N] = q / (1 - q): expected receivers (source excluded), any model."""
    return _renewal(d, m).cluster_size


def _solver_setup(d: HeadwayDistribution, m, grid_step: float, max_s: float):
    """(grid size, m's hop kernel, 1 - q), checked in that order: the grid, m's grid
    and the degeneracy."""
    return (_grid_points(grid_step, max_s), m.hop_kernel(d, grid_step, max_s),
            _checked(m.hop_law(d))[1])


def cdf(d: HeadwayDistribution, m, grid_step: float, max_s: float) -> CdfCurve:
    """F_D on [0, max_s] for any channel model: F_D(0) = (1 - q) / (1 - p(0) P(H = 0)),
    which is 1 - q unless gaps can be exactly 0; later grid values by an implicit
    march on the product-integration lag weights of the model's hop kernel f_H p,
    then monotonicity repair (decreases below 1e-6 clamp, anything larger raises)."""
    n, (coef, shape, upper, mass), fail = _solver_setup(d, m, grid_step, max_s)
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
    n, (_, shape, upper, mass), fail = _solver_setup(headway, m, grid_step, max_s)
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
    """Every closed form at one (headway, model) point, for any channel model:
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
    """Every closed form at one (headway, model) point, from one hop law: the
    one-point case of `sweep_stats`."""
    (st,) = sweep_stats([(d, m)])
    if isinstance(st, Exception):
        raise st
    return st


def sweep_columns(points: list) -> tuple[list, list]:
    """(errors, groups) at the (d, m) of points: errors[i] the ValidationError,
    DegenerateProcessError or NumericError point i raises (at its hop law, its
    1 - q or its `_paper_inputs`, in that order) or None; groups an (indices,
    columns) per model class of the others, columns[f] the array of each field f
    of DistanceStats the class gives. One point takes its law alone."""
    laws = _first_level_laws(points) if len(points) > 1 else [None] * len(points)
    errors, rows = [None] * len(points), {}  # model class -> (indices, a model, floats)
    for i, ((d, m), law) in enumerate(zip(points, laws)):
        try:
            law = _checked(law or m.hop_law(d))
            x = (*law, *m._paper_inputs(d))
        except (ValidationError, DegenerateProcessError, NumericError) as exc:
            errors[i] = exc
            continue
        idx, _, xs = rows.setdefault(type(m), ([], m, []))
        idx.append(i)
        xs += x
    groups = []
    with np.errstate(over="ignore", invalid="ignore"):  # silent, as Python floats are
        for idx, m, xs in rows.values():
            x = np.fromiter(xs, float).reshape(len(idx), -1).T
            r = _compound(*x[:4])
            groups.append((idx, dict(zip(DistanceStats.__dataclass_fields__, (
                r.q, r.mean, r.var_renewal, r.cluster_size, *m.paper_forms(x[4:], r))))))
    return errors, groups


def sweep_stats(points: list) -> list:
    """`sweep_columns(points)` as one record per point: `distance_stats(d, m)` at
    each (d, m) of points, in order, or in its place the typed error it raises."""
    out, groups = sweep_columns(points)
    for idx, columns in groups:
        for i, row in zip(idx, zip(*[c.tolist() for c in columns.values()])):
            out[i] = DistanceStats(*row)
    return out
