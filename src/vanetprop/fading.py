"""The Rayleigh fading channel model.

Here no hard reception cutoff exists. The received power over a gap tau
is exponentially distributed with mean P_t * K * (d0/tau)^alpha, so a
hop succeeds with probability

    p_s(tau) = exp(-(P_th / (P_t K)) * (tau / d0)^alpha)

and the per-hop failure probability is F_P = E[1 - p_s(H)]. Only this
hop kernel differs from contention: `FadingModel` supplies its hop law
and printed variance to the one record of `analytic.distance_stats`
(fading has no bounds), and its hop kernel f_H p on [0, max_s] to the
CDF solver `analytic.cdf`; the functions here are that core under
fading names.

`FadingModel.hop_laws` lets `analytic.sweep_stats` evaluate the first
quadrature level of up to _CHUNK density points at once, with one
density per headway object (a link sweep's points share one).

As with the contention model, the printed variance identity
(`variance_fading_paper`, no mean-square term) and the
compound-geometric one (`variance_fading_renewal`) are both exposed and
simulation arbitrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import analytic
from .errors import NumericError, ValidationError
from .headway import HeadwayDistribution
from .quad import first_level_semi_infinite, integrate, integrate_semi_infinite

__all__ = [
    "FadingModel",
    "success_prob",
    "hop_failure_prob",
    "mean_distance_fading",
    "variance_fading_paper",
    "variance_fading_renewal",
    "fading_stats",
]

# headway densities are smooth; push the quadrature well below the 1e-9
# closed-form acceptance tolerance
_REL_TOL = 1e-11

# sweep points whose first quadrature levels are evaluated together: a level
# holds 3 x 480 values per point, and chunks keep a long sweep's arrays small
_CHUNK = 16


@dataclass(frozen=True)
class FadingModel:
    """Rayleigh fading link budget.

    tx_power: transmit power P_t (W)
    gain_const: unit-distance path gain constant K
    ref_distance: reference distance d0 (m)
    path_loss_exp: path loss exponent alpha
    power_threshold: required receive power P_th (W)
    """

    tx_power: float
    gain_const: float
    ref_distance: float
    path_loss_exp: float
    power_threshold: float

    def __post_init__(self):
        for name in ("tx_power", "gain_const", "ref_distance", "path_loss_exp",
                     "power_threshold"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)) or v <= 0:
                raise ValidationError(f"{name} must be finite and > 0, got {v!r}")
        if not 1.0 <= self.path_loss_exp <= 6.0:
            raise ValidationError(
                f"path_loss_exp must lie in [1, 6], got {self.path_loss_exp!r}"
            )

    @property
    def decay(self) -> float:
        """c = P_th / (P_t K); p_s(tau) = exp(-c (tau/d0)^alpha)."""
        return self.power_threshold / (self.tx_power * self.gain_const)

    def _exponent(self, tau: np.ndarray) -> np.ndarray:
        """c (tau/d0)^alpha, so that p_s(tau) = exp(-exponent)."""
        return self.decay * (tau / self.ref_distance) ** self.path_loss_exp

    def hop_law(self, d: HeadwayDistribution) -> tuple[float, float, float, float]:
        """(1 - F_P, F_P, E[H p_s(H)], E[H^2 p_s(H)]): one stacked expectation under d."""
        fail, m1, m2 = _expect(d, self._hop_stack).tolist()
        return 1.0 - fail, fail, m1, m2

    def _hop_stack(self, t: np.ndarray) -> np.ndarray:
        """(1 - p_s, tau p_s, tau^2 p_s) at the gaps t: the integrands of `hop_law`."""
        x = self._exponent(t)
        p = np.exp(-x)
        # 1 - exp(-x) via expm1: the naive form loses all precision for the
        # near-transparent channels the consistency checks use
        return np.array((-np.expm1(-x), t * p, t * t * p))

    def hop_kernel(self, d: HeadwayDistribution, grid_step: float, max_s: float):
        """f_H p on [0, max_s]: (p(0) = 1, shape p, upper max_s, mass E[p(H); H <= max_s]
        as a callable). No range cutoff, so no range-relative grid check."""
        def p(tau):
            return np.exp(-self._exponent(tau))

        return 1.0, p, max_s, lambda: float(_expect(d, p, max_s))

    def hop_succeeds(self, tau: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Simulated hop outcomes: uniform draw u below p_s(tau)."""
        # (tau/d0)^alpha is 0 at tau = 0, so a zero gap succeeds (limit p_s -> 1).
        # p_s(tau) = exp(-_exponent(tau)), bit for bit, built in place on one array
        p = tau / self.ref_distance
        p **= self.path_loss_exp
        p *= self.decay
        np.negative(p, out=p)
        np.exp(p, out=p)
        return u < p

    def paper_forms(self, d: HeadwayDistribution, r) -> tuple[float]:
        """(var_paper,): E[H^2 p_s(H)] / F_P from the closed forms r; no bounds."""
        return (r.second,)

    @staticmethod
    def hop_laws(points: list) -> list:
        """`_first_level_laws` of each _CHUNK points of the (d, f) points, in order."""
        return [law for i in range(0, len(points), _CHUNK)
                for law in _first_level_laws(points[i:i + _CHUNK])]


def success_prob(f: FadingModel, tau: float) -> float:
    """P(hop over gap tau succeeds). tau -> 0+ limit is 1."""
    if not (isinstance(tau, (int, float)) and math.isfinite(tau)) or tau <= 0:
        raise ValidationError(f"gap must be finite and > 0, got {tau!r}")
    return math.exp(-f.decay * (tau / f.ref_distance) ** f.path_loss_exp)


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
    return integrate_semi_infinite(_mean_scaled(d, lo, g), 0.0, rel_tol=_REL_TOL).value


def _mean_scaled(d: HeadwayDistribution, lo: float, g: Callable[[np.ndarray], np.ndarray]):
    """x -> s f_H(t) g(t) at t = lo + s x, s = d.mean(): E[g(H)] over [lo, inf)
    as an integral over x in [0, inf)."""
    density = _scaled_density(d, lo)

    def f(x):
        t, sf = density(x)
        return sf * g(t)

    return f


def _scaled_density(d: HeadwayDistribution, lo: float):
    """x -> (t, s f_H(t)) at t = lo + s x, s = d.mean(): the headway half of
    `_mean_scaled`."""
    s = d.mean()

    def density(x):
        t = lo + s * x
        return t, s * d.pdf(t)

    return density


def hop_failure_prob(f: FadingModel, d: HeadwayDistribution) -> float:
    """F_P = E[1 - p_s(H)], the probability one hop fails."""
    return analytic.hop_failure_prob(d, f)


def mean_distance_fading(f: FadingModel, d: HeadwayDistribution) -> float:
    """E[D] = E[tau p_s(tau)] / F_P."""
    return analytic.mean_distance(d, f)


def variance_fading_paper(f: FadingModel, d: HeadwayDistribution) -> float:
    """Printed identity: E[tau^2 p_s(tau)] / F_P, no mean-square term."""
    return analytic.variance_paper(d, f)


def variance_fading_renewal(f: FadingModel, d: HeadwayDistribution) -> float:
    """Compound-geometric variance: E[tau^2 p_s(tau)] / F_P + E[D]^2."""
    return analytic.variance_renewal(d, f)


def fading_stats(f: FadingModel, d: HeadwayDistribution) -> analytic.DistanceStats:
    """`analytic.distance_stats(d, f)`: every closed form, the bounds None."""
    return analytic.distance_stats(d, f)


def _first_level_laws(chunk: list[tuple[HeadwayDistribution, FadingModel]]) -> list:
    """f.hop_law(d) for each (d, f) of chunk whose quadrature stops on its first
    level, None for the others.

    The level evaluates each integrand once, on its nodes x, so the headway
    half of `_mean_scaled` (`_scaled_density`: t = lo + s x and s f_H(t)) is
    evaluated once per distinct headway object and multiplied into the
    `_hop_stack(t)` of each of its points: a link sweep's points share one
    density. Each point's integrand stays, op for op, the one `hop_law`
    integrates.
    """
    laws = [None] * len(chunk)
    mapped = [i for i, (d, _) in enumerate(chunk)
              if d.atoms() is None and d.support()[1] == math.inf]
    if not mapped:
        return laws
    level = {}  # id of a headway -> its (t, s f_H(t)) on the level's nodes

    def integrand(d: HeadwayDistribution, f: FadingModel):
        def g(x):
            if id(d) not in level:
                level[id(d)] = _scaled_density(d, d.support()[0])(x)
            t, sf = level[id(d)]
            return sf * f._hop_stack(t)

        return g

    try:
        values = first_level_semi_infinite([integrand(*chunk[i]) for i in mapped],
                                           0.0, _REL_TOL)
    except (ValidationError, NumericError):
        return laws
    for i, v in zip(mapped, values):
        if v is not None:
            fail, m1, m2 = v.tolist()
            laws[i] = (1.0 - fail, fail, m1, m2)
    return laws
