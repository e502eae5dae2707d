"""A channel model is its kernel p(tau): a third kernel, the default hop
test and contention's override of it, and the simulator's model check."""

import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from conftest import scalar_stats

from vanetprop import (
    ChannelModel,
    ContentionModel,
    EmpiricalHeadway,
    ExponentialHeadway,
    FadingModel,
    LognormalHeadway,
    SimConfig,
    UniformHeadway,
    ValidationError,
    cdf,
    compare,
    distance_stats,
    run,
)
from vanetprop.analytic import sweep_stats


@dataclass(frozen=True)
class NakagamiModel(ChannelModel):
    """Integer-m Nakagami fading under threshold reception (Nakagami, 1960):
    p(tau) = exp(-x) sum_{k<m} x^k / k! with x = m c (tau/d0)^alpha, the
    tail of a Gamma(m, 1/m) power gain at the threshold; m = 1 is Rayleigh."""

    m: int
    decay: float
    ref_distance: float = 1.0
    path_loss_exp: float = 1.0

    def _terms(self, tau):
        """(x, sum_{1 <= k < m} x^k / k!) at the gaps tau."""
        x = self.m * self.decay * (tau / self.ref_distance) ** self.path_loss_exp
        term, rest = 1.0, 0.0
        for k in range(1, self.m):
            term = term * x / k
            rest = rest + term
        return x, rest

    def success(self, tau):
        x, rest = self._terms(tau)
        return np.exp(-x) * (1.0 + rest)

    def _hop_stack(self, t):
        x, rest = self._terms(t)
        p = np.exp(-x) * (1.0 + rest)
        # 1 - p = (1 - exp(-x)) - exp(-x) rest, with expm1 as fading takes it
        return np.array((-np.expm1(-x) - np.exp(-x) * rest, t * p, t * t * p))

    def paper_forms(self, d, r):
        return (r.second,)


def rayleigh(c, d0, alpha):
    return FadingModel(tx_power=1.0, gain_const=1.0, ref_distance=d0,
                       path_loss_exp=alpha, power_threshold=c)


LAWS = [ExponentialHeadway(rate=0.2), LognormalHeadway(log_mean=1.5, log_sd=0.6),
        UniformHeadway(low=2.0, high=20.0),
        EmpiricalHeadway.from_samples([1.0, 2.5, 4.0, 9.0, 30.0])]
LINKS = [(0.05, 1.0, 1.0), (1e-3, 3.0, 2.5), (0.2, 2.0, 6.0)]


@pytest.mark.parametrize("d", LAWS, ids=["exponential", "lognormal", "uniform", "empirical"])
@pytest.mark.parametrize("c, d0, alpha", LINKS)
def test_nakagami_at_m_1_is_the_rayleigh_hop_law(d, c, d0, alpha):
    f, n = rayleigh(c, d0, alpha), NakagamiModel(1, c, d0, alpha)
    assert n.hop_law(d) == pytest.approx(f.hop_law(d), rel=1e-15, abs=0.0)
    # the sweep's shared first level takes any model that keeps the core's law
    fields = ("q_hop", "mean", "var_renewal", "cluster_size", "var_paper")
    got_n, got_f = sweep_stats([(d, n), (d, f)])
    assert [getattr(got_n, k) for k in fields] == pytest.approx(
        [getattr(got_f, k) for k in fields], rel=1e-15, abs=0.0)
    assert got_n == distance_stats(d, n)
    assert repr(got_n) == repr(scalar_stats(d, n))  # as Python floats give it


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("d", LAWS[:2], ids=["exponential", "lognormal"])
def test_nakagami_closed_forms_and_curve_match_the_simulator(m, d):
    model = NakagamiModel(m, 0.05)
    st = distance_stats(d, model)
    curve = cdf(d, model, 0.5, 300.0)
    sims = [run(SimConfig(d, model, trials=200_000, seed=11, ecdf_grid=(0.5, 300.0)),
                workers=w) for w in (1, 2)]
    # bit-identical for any pool size, the ECDF included
    assert replace(sims[0], ecdf=None) == replace(sims[1], ecdf=None)
    assert np.array_equal(sims[0].ecdf.values, sims[1].ecdf.values)
    for value, metric in ((st.mean, "mean_D"), (st.var_renewal, "var_D"),
                          (st.cluster_size, "mean_N"), (curve, "cdf_supnorm")):
        rep = compare(value, sims[0], metric)
        assert rep.passed, rep


def test_the_default_hop_test_is_a_draw_below_the_kernel():
    f = rayleigh(0.05, 2.0, 2.5)
    tau = np.array([0.0, 1e-300, 3.0, 20.0, 40.0, math.inf])
    p = np.exp(-(0.05 * (tau / 2.0) ** 2.5))
    assert type(f).hop_succeeds is ChannelModel.hop_succeeds
    assert np.array_equal(f.success(tau), p)
    # a draw at p fails, one just below it succeeds; p = 1 at a zero gap and
    # p = 0 at an infinite one, where even u = 0 fails
    for u in (p, np.nextafter(p, 0.0), np.zeros_like(p), np.full_like(p, 0.5)):
        assert np.array_equal(f.hop_succeeds(tau, u), u < p)
    assert f.hop_succeeds(tau, np.nextafter(p, 0.0)).tolist() == [True] * 5 + [False]
    # the CDF kernel's shape is the same p, at an array and at one float
    coef, shape, upper, _ = f.hop_kernel(ExponentialHeadway(0.2), 0.5, 300.0)
    assert (coef, upper) == (1.0, 300.0)
    assert np.array_equal(shape(tau), p)
    assert shape(3.0) == p[2] and shape(300.0) == f.success(300.0)


@pytest.mark.parametrize("p_s", [0.0, 0.3, 1.0])
def test_the_contention_hop_test_is_a_coin_within_range(p_s):
    L = 100.0
    m = ContentionModel(p_s=p_s, max_range=L)
    tau = np.array([0.0, np.nextafter(L, 0.0), L, np.nextafter(L, math.inf), math.inf])
    for u in (0.0, np.nextafter(p_s, 0.0), p_s, np.nextafter(p_s, 1.0), 0.999):
        u = np.full_like(tau, u)
        want = u < np.where(tau <= L, p_s, 0.0)
        assert np.array_equal(m.hop_succeeds(tau, u), want)
    # the range edge belongs to the range: a draw below p_s succeeds at tau = L
    assert m.hop_succeeds(tau, np.zeros_like(tau)).tolist() == [p_s > 0.0] * 3 + [False] * 2


class DuckModel:
    """Every method the simulator calls, but no ChannelModel."""

    def hop_law(self, d):
        return 0.5, 0.5, 1.0, 2.0

    def hop_succeeds(self, tau, u):
        return u < 0.5


@pytest.mark.parametrize("model", [DuckModel(), None, "fading", ExponentialHeadway(0.2),
                                   FadingModel])
def test_the_simulator_takes_only_a_channel_model(model):
    with pytest.raises(ValidationError, match="model"):
        SimConfig(ExponentialHeadway(0.2), model, trials=10, seed=0)

