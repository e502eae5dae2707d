"""The Rayleigh fading channel model.

Here no hard reception cutoff exists. The received power over a gap tau
is exponentially distributed with mean P_t * K * (d0/tau)^alpha, so a
hop succeeds with probability

    p_s(tau) = exp(-(P_th / (P_t K)) * (tau / d0)^alpha)

and the per-hop failure probability is F_P = E[1 - p_s(H)]. Only this
kernel differs from contention: `FadingModel` gives p_s (`success`), the
stack (1 - p_s, tau p_s, tau^2 p_s) from one exponent per gap, and its
printed variance, and `analytic.ChannelModel` derives its hop law, CDF
kernel and hop test from them. The functions here are that core under
fading names.

As with the contention model, the printed variance identity
(`variance_fading_paper`, no mean-square term) and the
compound-geometric one (`variance_fading_renewal`) are both exposed and
simulation arbitrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .errors import _check_real
from .headway import HeadwayDistribution
# no caller here: bench/tracer.py patches this name (ROADMAP item 8)
from .quad import integrate_semi_infinite

__all__ = [
    "FadingModel",
    "success_prob",
    "hop_failure_prob",
    "mean_distance_fading",
    "variance_fading_paper",
    "variance_fading_renewal",
    "fading_stats",
]


@dataclass(frozen=True)
class FadingModel(analytic.ChannelModel):
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
        for name in ("tx_power", "gain_const", "ref_distance", "power_threshold"):
            _check_real(name, getattr(self, name), 0.0, strict=True)
        _check_real("path_loss_exp", self.path_loss_exp, 1.0, 6.0)

    @property
    def decay(self) -> float:
        """c = P_th / (P_t K); p_s(tau) = exp(-c (tau/d0)^alpha)."""
        return self.power_threshold / (self.tx_power * self.gain_const)

    def _exponent(self, tau: np.ndarray) -> np.ndarray:
        """c (tau/d0)^alpha, so that p_s(tau) = exp(-exponent)."""
        return self.decay * (tau / self.ref_distance) ** self.path_loss_exp

    def success(self, tau):
        """p_s(tau); (tau/d0)^alpha is 0 at tau = 0, so a zero gap succeeds."""
        return np.exp(-self._exponent(tau))

    def _hop_stack(self, t: np.ndarray) -> np.ndarray:
        """(1 - p_s, tau p_s, tau^2 p_s) at the gaps t, from one exponent per gap."""
        x = self._exponent(t)
        p = np.exp(-x)
        # 1 - exp(-x) via expm1: the naive form loses all precision for the
        # near-transparent channels the consistency checks use
        return np.array((-np.expm1(-x), t * p, t * t * p))

    @staticmethod
    def paper_forms(x: np.ndarray, r) -> tuple[np.ndarray]:
        """(var_paper,): E[H^2 p_s(H)] / F_P from the closed forms r; no bounds."""
        return (r.second,)


def success_prob(f: FadingModel, tau: float) -> float:
    """P(hop over gap tau succeeds). tau -> 0+ limit is 1."""
    _check_real("tau", tau, 0.0, strict=True)
    return math.exp(-f._exponent(tau))


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

