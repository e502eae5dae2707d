"""Headway distribution families: densities, moments, sampling."""

import math
import pickle

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vanetprop import (
    DeterministicHeadway,
    EmpiricalHeadway,
    ExponentialHeadway,
    HeadwayDistribution,
    LognormalHeadway,
    NumericError,
    UniformHeadway,
    UnsupportedOrderError,
    ValidationError,
    load_headway_file,
)
from vanetprop import headway as headway_module

# frozen closed-form values, double checked against scipy quadrature below
EXP02_I1_100 = 4.999999783578869   # (1 - e^{-20} * 21) / 0.2
EXP02_I2_100 = 49.99997722425246


def density_families():
    return [
        ExponentialHeadway(rate=0.2),
        ExponentialHeadway(rate=0.06),
        UniformHeadway(low=0.0, high=10.0),
        UniformHeadway(low=2.0, high=8.0),
        LognormalHeadway(log_mean=1.5, log_sd=0.5),
        LognormalHeadway(log_mean=2.0, log_sd=0.8),
    ]


def all_families():
    return density_families() + [
        DeterministicHeadway(spacing=50.0),
        EmpiricalHeadway.from_samples([1.0, 2.5, 2.5, 4.0, 7.5, 12.0]),
    ]


# ---------------------------------------------------------------- pdf / cdf

def test_pdf_spot_values():
    assert ExponentialHeadway(rate=0.2).pdf(0.0) == pytest.approx(0.2, rel=1e-15)
    assert UniformHeadway(0.0, 10.0).pdf(5.0) == pytest.approx(0.1, rel=1e-15)
    assert ExponentialHeadway(rate=0.2).pdf(5.0) == pytest.approx(0.2 * math.exp(-1.0), rel=1e-15)


def test_pdf_matches_cdf_derivative():
    d = ExponentialHeadway(rate=0.2)
    h = 1e-6
    deriv = (d.cdf(5.0 + h) - d.cdf(5.0 - h)) / (2.0 * h)
    assert deriv == pytest.approx(d.pdf(5.0), abs=1e-8)


@pytest.mark.parametrize("d", all_families())
def test_pdf_rejects_negative_argument(d):
    with pytest.raises(ValidationError):
        d.pdf(-0.5)


def test_cdf_spot_values():
    assert ExponentialHeadway(rate=0.2).cdf(100.0) == pytest.approx(1.0 - math.exp(-20.0), rel=1e-15)
    assert UniformHeadway(0.0, 10.0).cdf(10.0) == 1.0
    det = DeterministicHeadway(spacing=50.0)
    assert det.cdf(49.9) == 0.0
    assert det.cdf(50.0) == 1.0


@pytest.mark.parametrize("d", all_families())
def test_cdf_basic_shape(d):
    assert d.cdf(-1.0) == 0.0
    xs = np.linspace(0.0, 200.0, 400)
    vals = [d.cdf(float(x)) for x in xs]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b - a >= -1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.99 or d.cdf(1e6) > 0.999  # tends to 1


@pytest.mark.parametrize("d", density_families())
def test_cdf_integrates_pdf(d):
    # |cdf(x) - integral_0^x pdf| <= 1e-8 on a grid
    for x in (0.5, 2.0, 5.0, 9.0, 25.0, 80.0):
        val, _ = scipy.integrate.quad(d.pdf, 0.0, x, limit=200)
        assert abs(val - d.cdf(x)) <= 1e-8


@pytest.mark.parametrize("d", density_families(), ids=repr)
def test_support_holds_all_the_density(d):
    lo, hi = d.support()
    assert 0.0 <= lo < hi
    assert d.cdf(lo) == 0.0 and (hi == math.inf or d.cdf(hi) == 1.0)
    outside = np.append(np.linspace(0.0, lo, 50, endpoint=False) if lo > 0.0 else [],
                        1.01 * hi + 1.0)
    assert not np.any(d.pdf(outside))


@pytest.mark.parametrize("d", all_families()[-2:], ids=repr)
def test_atomic_laws_have_no_density(d):
    assert not d.has_density
    with pytest.raises(ValidationError, match=r"use atoms\(\)"):
        d.pdf(5.0)


def test_lognormal_cdf_keeps_the_lower_tail():
    # 1 + erf(x) cancels here; erfc does not
    d = LognormalHeadway(log_mean=0.0, log_sd=1.0)
    assert d.cdf(math.exp(-10.0)) == pytest.approx(scipy.stats.norm.cdf(-10.0), rel=1e-13, abs=0.0)


# ---------------------------------------------------- array arguments

# a (2, 4) grid: zero, both sides of the uniform edges, the lognormal tails
GRID = np.array([[0.0, 1e-3, 1.9, 2.0],
                 [5.5, 8.0, 20.0, 250.0]])


@pytest.mark.parametrize("d", density_families(), ids=repr)
def test_array_pdf_and_cdf_equal_the_scalar_calls(d):
    for fn in (d.pdf, d.cdf):
        out = fn(GRID)
        assert isinstance(out, np.ndarray) and out.shape == GRID.shape
        scalar = np.array([[fn(float(x)) for x in row] for row in GRID])
        np.testing.assert_allclose(out, scalar, rtol=1e-15, atol=0.0)
        assert isinstance(fn(2.5), float)


@pytest.mark.parametrize("d", all_families()[-2:], ids=repr)
def test_atomic_cdf_takes_arrays_and_pdf_raises_on_them(d):
    out = d.cdf(GRID)
    assert out.shape == GRID.shape
    np.testing.assert_array_equal(out, [[d.cdf(float(x)) for x in row] for row in GRID])
    with pytest.raises(ValidationError, match=r"use atoms\(\)"):
        d.pdf(GRID)


@pytest.mark.parametrize("d", density_families(), ids=repr)
def test_array_pdf_rejects_a_negative_entry(d):
    with pytest.raises(ValidationError, match="-0.5"):
        d.pdf(np.array([1.0, -0.5, 2.0]))


@pytest.mark.parametrize("d", density_families(), ids=repr)
def test_pdf_and_cdf_at_zero_are_finite_without_warnings(d):
    # pytest turns warnings into errors, so a log(0) or 0/0 would fail here
    for fn in (d.pdf, d.cdf):
        assert math.isfinite(fn(0.0))
        assert np.all(np.isfinite(fn(np.zeros(3))))
    np.testing.assert_array_equal(d.cdf(np.array([-1.0, 0.0])), [0.0, 0.0])


# ---------------------------------------------------------- moments

def test_mean_variance_spot_values():
    assert ExponentialHeadway(rate=0.2).mean() == pytest.approx(5.0, rel=1e-15)
    assert ExponentialHeadway(rate=0.2).variance() == pytest.approx(25.0, rel=1e-15)
    u = UniformHeadway(0.0, 10.0)
    assert u.mean() == pytest.approx(5.0, rel=1e-15)
    assert u.variance() == pytest.approx(100.0 / 12.0, rel=1e-15)
    det = DeterministicHeadway(spacing=50.0)
    assert det.mean() == 50.0
    assert det.variance() == 0.0
    lg = LognormalHeadway(log_mean=1.5, log_sd=0.5)
    assert lg.mean() == pytest.approx(math.exp(1.625), rel=1e-15)
    assert lg.variance() == pytest.approx((math.exp(0.25) - 1.0) * math.exp(3.25), rel=1e-14)


@pytest.mark.parametrize("d", density_families())
def test_mean_variance_match_quadrature(d):
    m1, _ = scipy.integrate.quad(lambda t: t * d.pdf(t), 0.0, np.inf, limit=400)
    m2, _ = scipy.integrate.quad(lambda t: t * t * d.pdf(t), 0.0, np.inf, limit=400)
    assert d.mean() == pytest.approx(m1, rel=1e-8)
    assert d.variance() == pytest.approx(m2 - m1 * m1, rel=1e-6)


def test_truncated_moment_spot_values():
    d = ExponentialHeadway(rate=0.2)
    assert d.truncated_moment(1, 100.0) == pytest.approx(EXP02_I1_100, rel=1e-14)
    assert d.truncated_moment(2, 100.0) == pytest.approx(EXP02_I2_100, rel=1e-14)
    assert UniformHeadway(0.0, 10.0).truncated_moment(2, 100.0) == pytest.approx(100.0 / 3.0, rel=1e-14)
    assert EmpiricalHeadway.from_samples([2.0, 4.0, 6.0, 8.0]).truncated_moment(1, 5.0) == 1.5
    det = DeterministicHeadway(spacing=50.0)
    assert det.truncated_moment(1, 100.0) == 50.0
    assert det.truncated_moment(2, 100.0) == 2500.0
    assert det.truncated_moment(1, 49.0) == 0.0


@pytest.mark.parametrize("rate", [1e-8, 1e-7, 1e-6, 1e-4, 0.0099, 0.0101, 0.05, 0.2])
@pytest.mark.parametrize("order", [1, 2])
def test_exponential_truncated_moment_matches_the_incomplete_gamma(rate, order):
    # I_k(U) = k! P(k+1, rU) / r^k. Below rU = 1 the closed form's differences
    # cancel: I2 was off by 0.33 at rate 1e-7 and by all its digits at 1e-8
    upper = 100.0
    oracle = math.factorial(order) * scipy.special.gammainc(order + 1, rate * upper) / rate ** order
    assert ExponentialHeadway(rate).truncated_moment(order, upper) == pytest.approx(oracle, rel=1e-13)


def test_exponential_truncated_moment_where_rate_squared_underflows():
    # rate^2 = 0 in doubles; I_k(U) -> r U^{k+1} / (k+1) as rU -> 0, and the
    # incomplete gamma itself underflows here, so the limit is the oracle
    d = ExponentialHeadway(1e-300)
    assert d.truncated_moment(1, 100.0) == pytest.approx(1e-300 * 100.0 ** 2 / 2, rel=1e-15)
    assert d.truncated_moment(2, 100.0) == pytest.approx(1e-300 * 100.0 ** 3 / 3, rel=1e-15)


@pytest.mark.parametrize("z", [-1e4, -300.0, -50.0, -37.0001, -37.0, -36.9999, -20.0, -5.0, 0.0, 4.0])
def test_log_normal_cdf_matches_scipy_where_the_cdf_underflows(z):
    assert headway_module._log_norm_cdf(z) == pytest.approx(scipy.special.log_ndtr(z), rel=1e-14)


@pytest.mark.parametrize("log_mean, log_sd", [(1.5, 20.0), (1.5, 30.0), (700.0, 3.0), (-800.0, 27.0)])
@pytest.mark.parametrize("order", [1, 2])
def test_lognormal_truncated_moment_where_its_full_moment_overflows(log_mean, log_sd, order):
    # exp(k m + k^2 s^2 / 2) overflows a float (for all but (1.5, 20) at k = 1);
    # the truncated moment is at most U^k and is taken in logs
    upper = 100.0
    z = (math.log(upper) - log_mean - order * log_sd ** 2) / log_sd
    oracle = math.exp(order * log_mean + 0.5 * (order * log_sd) ** 2 + scipy.special.log_ndtr(z))
    got = LognormalHeadway(log_mean, log_sd).truncated_moment(order, upper)
    assert got == pytest.approx(oracle, rel=1e-11)
    assert 0.0 <= got <= upper ** order


def test_moments_that_overflow_a_float_raise_a_numeric_error():
    with pytest.raises(NumericError, match="lognormal mean"):
        LognormalHeadway(1.5, 40.0).mean()
    for d in (LognormalHeadway(1.5, 19.0), LognormalHeadway(1.5, 30.0),
              LognormalHeadway(700.0, 3.0)):
        with pytest.raises(NumericError, match="lognormal variance"):
            d.variance()
    with pytest.raises(NumericError, match="rate 1e-300"):
        ExponentialHeadway(1e-300).variance()
    # expm1(s^2) overflows, the variance (e^729 - 1) e^-871 does not
    assert LognormalHeadway(-800.0, 27.0).variance() == pytest.approx(math.exp(-142.0), rel=1e-14)


@pytest.mark.parametrize("d", all_families())
def test_truncated_moment_vanishes_at_zero(d):
    if isinstance(d, DeterministicHeadway) and d.spacing == 0.0:
        return
    assert d.truncated_moment(1, 0.0) == 0.0
    assert d.truncated_moment(2, 0.0) == 0.0


@pytest.mark.parametrize("d", density_families())
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("upper", [0.5, 3.0, 10.0, 40.0, 150.0])
def test_truncated_moment_against_scipy(d, order, upper):
    breaks = [x for x in (getattr(d, "low", None), getattr(d, "high", None))
              if x is not None and 0.0 < x < upper]  # quad misses support edges otherwise
    oracle, err = scipy.integrate.quad(lambda t: t ** order * d.pdf(t), 0.0, upper,
                                       limit=300, points=breaks or None)
    assert d.truncated_moment(order, upper) == pytest.approx(oracle, rel=1e-9, abs=max(err, 1e-13))


def test_truncated_moment_empirical_matches_brute_force():
    rng = np.random.default_rng(3)
    data = rng.exponential(5.0, 500)
    d = EmpiricalHeadway.from_samples(data)
    for upper in (0.5, 4.0, 12.0, 60.0):
        for order in (1, 2):
            brute = float(np.sum(data[data <= upper] ** order)) / data.size
            assert d.truncated_moment(order, upper) == pytest.approx(brute, rel=1e-13, abs=1e-15)


def test_truncated_moment_fallback_route_matches_closed_form():
    # a family that only provides pdf/cdf goes through adaptive quadrature
    class _Plain(HeadwayDistribution):
        def __init__(self, inner):
            self.inner = inner

        def pdf(self, x):
            return self.inner.pdf(x)

        def cdf(self, x):
            return self.inner.cdf(x)

        def mean(self):
            return self.inner.mean()

        def variance(self):
            return self.inner.variance()

        def sample(self, rng, size=None):
            return self.inner.sample(rng, size)

    for inner in (ExponentialHeadway(rate=0.2), LognormalHeadway(log_mean=1.5, log_sd=0.5)):
        plain = _Plain(inner)
        for order in (1, 2):
            for upper in (2.0, 10.0, 100.0):
                assert plain.truncated_moment(order, upper) == pytest.approx(
                    inner.truncated_moment(order, upper), rel=1e-9, abs=1e-13)


def test_truncated_moment_rejects_bad_order_and_upper():
    d = ExponentialHeadway(rate=0.2)
    with pytest.raises(UnsupportedOrderError):
        d.truncated_moment(3, 10.0)
    with pytest.raises(UnsupportedOrderError):
        d.truncated_moment(0, 10.0)
    with pytest.raises(UnsupportedOrderError):
        d.truncated_moment(True, 10.0)  # bool is an int subclass, but not an order
    with pytest.raises(ValidationError):
        d.truncated_moment(1, -1.0)
    with pytest.raises(ValidationError):
        d.truncated_moment(1, math.inf)


# ------------------------------------------- truncation inequalities

@pytest.mark.parametrize("d", all_families())
@pytest.mark.parametrize("upper", [0.25, 1.0, 4.0, 9.5, 30.0, 120.0])
def test_truncated_moment_relaxations(d, upper):
    i1 = d.truncated_moment(1, upper)
    i2 = d.truncated_moment(2, upper)
    cap = min(d.mean(), upper * d.cdf(upper))
    assert i1 <= cap * (1.0 + 1e-12) + 1e-15
    assert i2 <= upper * i1 * (1.0 + 1e-12) + 1e-15


@settings(max_examples=150, deadline=None)
@given(rate=st.floats(0.01, 2.0), upper=st.floats(0.01, 500.0))
def test_exponential_relaxations_property(rate, upper):
    d = ExponentialHeadway(rate=rate)
    i1 = d.truncated_moment(1, upper)
    assert i1 <= min(d.mean(), upper * d.cdf(upper)) * (1.0 + 1e-12) + 1e-15
    assert d.truncated_moment(2, upper) <= upper * i1 * (1.0 + 1e-12) + 1e-15


@settings(max_examples=150, deadline=None)
@given(log_mean=st.floats(-1.0, 3.0), log_sd=st.floats(0.1, 1.2),
       upper=st.floats(0.01, 1000.0))
# the lower tail of 0.5 * (1 + erf) put I2 above U * I1 here
@example(log_mean=2.21875, log_sd=0.41796875, upper=0.41796875)
def test_lognormal_relaxations_property(log_mean, log_sd, upper):
    d = LognormalHeadway(log_mean=log_mean, log_sd=log_sd)
    i1 = d.truncated_moment(1, upper)
    assert i1 <= min(d.mean(), upper * d.cdf(upper)) * (1.0 + 1e-12) + 1e-15
    assert d.truncated_moment(2, upper) <= upper * i1 * (1.0 + 1e-12) + 1e-15


def _tail_bound(d, z):
    gap = z - d.mean()
    return 0.5 * (math.sqrt(d.variance() + gap * gap) + gap)


@pytest.mark.parametrize("d", all_families())
@pytest.mark.parametrize("k", [5.0, 6.0, 8.0, 12.0])
def test_tail_expectation_bound_far_from_mean(d, k):
    # mean - I1(z) = E[H 1{H > z}] against the distribution-free estimate;
    # valid once z sits several sigma above the mean (the regime the range
    # cutoffs live in), see test_tail_expectation_bound_at_the_mean
    z = d.mean() + k * math.sqrt(d.variance()) + 1e-9
    tail = d.mean() - d.truncated_moment(1, z)
    assert tail <= _tail_bound(d, z) + 1e-12


@pytest.mark.parametrize("d", all_families(), ids=repr)
@pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
def test_scarf_bound_on_the_excess_over_a_cutoff(d, k):
    # E[(H - z)+] = mu - I1(z) - z (1 - F(z)) for a cutoff z below, at and
    # above the mean, against Scarf's bound (sqrt(sigma^2 + (z - mu)^2) -
    # (z - mu)) / 2: the largest E[(H - z)+] of any law with this mean and
    # variance, and the estimate ContentionModel.paper_forms takes for mean_lower
    mu = d.mean()
    z = k * mu
    gap = z - mu
    excess = mu - d.truncated_moment(1, z) - z * (1.0 - d.cdf(z))
    assert excess <= 0.5 * (math.sqrt(d.variance() + gap * gap) - gap) + 1e-12 * mu


@pytest.mark.xfail(strict=True,
                   reason="the distribution-free tail estimate bounds E[(H-z)+], "
                          "not E[H 1{H>z}]; it fails for cutoffs near the mean "
                          "and the failure is kept visible here")
def test_tail_expectation_bound_at_the_mean():
    d = ExponentialHeadway(rate=0.2)
    z = d.mean()
    tail = d.mean() - d.truncated_moment(1, z)   # 10/e ~ 3.679
    assert tail <= _tail_bound(d, z) + 1e-12     # bound is sigma/2 = 2.5


# ---------------------------------------------------------------- sampling

def test_deterministic_sampling_is_constant():
    d = DeterministicHeadway(spacing=50.0)
    rng = np.random.default_rng(0)
    assert d.sample(rng) == 50.0
    out = d.sample(rng, size=1000)
    assert np.all(out == 50.0)


@pytest.mark.parametrize("d", all_families(), ids=repr)
def test_sample_returns_a_fresh_array_the_caller_may_overwrite(d):
    rng = np.random.default_rng(9)
    a, b = d.sample(rng, size=16), d.sample(rng, size=16)
    assert a.flags.writeable and not np.shares_memory(a, b)
    for field in vars(d).values():
        if isinstance(field, np.ndarray):
            assert not np.shares_memory(a, field)
    a[:] = -1.0
    assert float(np.min(d.sample(rng, size=16))) >= 0.0


def test_lognormal_draws_are_exp_of_the_normal_stream():
    d = LognormalHeadway(log_mean=1.5, log_sd=0.6)
    draws = d.sample(np.random.default_rng(3), size=10_000)
    normal = np.random.default_rng(3).normal(1.5, 0.6, size=10_000)
    assert np.array_equal(draws, np.exp(normal))
    # the same stream as rng.lognormal, up to the last bits of exp
    lognormal = np.random.default_rng(3).lognormal(1.5, 0.6, size=10_000)
    assert np.max(np.abs(draws - lognormal) / lognormal) <= 4e-16
    assert isinstance(d.sample(np.random.default_rng(3)), float)


def test_exponential_sample_mean():
    rng = np.random.default_rng(5)
    draws = ExponentialHeadway(rate=0.2).sample(rng, size=1_000_000)
    assert abs(float(np.mean(draws)) - 5.0) < 0.05  # ~10 sigma budget


def test_uniform_sample_ecdf_close():
    rng = np.random.default_rng(6)
    d = UniformHeadway(0.0, 10.0)
    draws = np.sort(d.sample(rng, size=1_000_000))
    n = draws.size
    F = draws / 10.0
    sup = max(float(np.max(np.arange(1, n + 1) / n - F)),
              float(np.max(F - np.arange(0, n) / n)))
    assert sup < 0.005  # DKW budget


@pytest.mark.parametrize("d,frozen", [
    (ExponentialHeadway(rate=0.2), scipy.stats.expon(scale=5.0)),
    (UniformHeadway(2.0, 8.0), scipy.stats.uniform(loc=2.0, scale=6.0)),
    (LognormalHeadway(log_mean=1.5, log_sd=0.5), scipy.stats.lognorm(s=0.5, scale=math.exp(1.5))),
])
def test_sampling_goodness_of_fit(d, frozen):
    # chi-square on 50 equal-probability bins, 1e6 draws, alpha = 0.01
    rng = np.random.default_rng(7)
    draws = d.sample(rng, size=1_000_000)
    nb = 50
    edges = frozen.ppf(np.linspace(0.0, 1.0, nb + 1))
    edges[0], edges[-1] = -np.inf, np.inf
    obs, _ = np.histogram(draws, bins=edges)
    exp = draws.size / nb
    stat = float(np.sum((obs - exp) ** 2 / exp))
    assert stat < scipy.stats.chi2.ppf(0.99, nb - 1)


def test_empirical_sampling_goodness_of_fit():
    d = EmpiricalHeadway.from_samples([1.0, 2.0, 2.0, 5.0, 5.0, 5.0, 8.0, 8.0])
    rng = np.random.default_rng(8)
    draws = d.sample(rng, size=1_000_000)
    values, weights = d.atoms()
    obs = np.array([np.count_nonzero(draws == v) for v in values])
    assert int(np.sum(obs)) == draws.size  # every draw is one of the atoms
    exp = weights * draws.size
    stat = float(np.sum((obs - exp) ** 2 / exp))
    assert stat < scipy.stats.chi2.ppf(0.99, values.size - 1)


# ----------------------------------------------------------- empirical data

def test_empirical_basic_statistics():
    d = EmpiricalHeadway.from_samples([5.0, 5.0, 5.0, 5.0])
    assert d.mean() == 5.0
    assert d.variance() == 0.0

    raw = [3.0, 1.0, 4.0, 1.0, 5.0]
    d2 = EmpiricalHeadway.from_samples(raw)
    assert np.all(np.diff(d2.samples) >= 0)  # stored sorted
    assert d2.mean() == float(np.mean(raw))
    assert d2.variance() == float(np.var(raw))
    assert d2.cdf(1.0) == pytest.approx(0.4)
    assert d2.cdf(4.5) == pytest.approx(0.8)
    values, weights = d2.atoms()
    assert weights.sum() == pytest.approx(1.0, rel=1e-15)
    assert repr(d2) == "EmpiricalHeadway(n=5)"


def test_empirical_pickles_its_samples_only_and_loads_bit_identical():
    emp = EmpiricalHeadway.from_samples(np.random.default_rng(3).lognormal(2.0, 0.7, 5000))
    blob = pickle.dumps(emp)
    assert len(blob) < emp.samples.nbytes + 1024  # no prefix sums
    back = pickle.loads(blob)
    x = np.linspace(0.0, 80.0, 1001)
    assert back.cdf(x).tobytes() == emp.cdf(x).tobytes()
    for order in (1, 2):
        for upper in (0.0, 3.3, 7.38905609893065, 40.0, 1e4):
            assert repr(back.truncated_moment(order, upper)) \
                == repr(emp.truncated_moment(order, upper))
    for got, want in zip(back.atoms(), emp.atoms()):
        assert got.tobytes() == want.tobytes()
    rngs = [np.random.Generator(np.random.SFC64(7)) for _ in range(2)]
    for size in (None, 1, 4096):
        assert np.asarray(back.sample(rngs[0], size)).tobytes() \
            == np.asarray(emp.sample(rngs[1], size)).tobytes()


def test_empirical_samples_are_validated_again_on_load():
    emp = EmpiricalHeadway.from_samples([1.0, 2.0, 3.0])
    object.__setattr__(emp, "samples", np.array([2.0, -1.0]))
    blob = pickle.dumps(emp)
    with pytest.raises(ValidationError, match="negative"):
        pickle.loads(blob)


def test_empirical_rejects_bad_input():
    with pytest.raises(ValidationError):
        EmpiricalHeadway.from_samples([1.0, -3.0])
    with pytest.raises(ValidationError):
        EmpiricalHeadway.from_samples([1.0])
    with pytest.raises(ValidationError):
        EmpiricalHeadway.from_samples([])
    with pytest.raises(ValidationError):
        EmpiricalHeadway.from_samples([1.0, math.nan])
    with pytest.raises(ValidationError) as exc:
        EmpiricalHeadway.from_samples([1.0, 2.0, -7.0])
    assert "row 2" in str(exc.value)  # offending rows named in input order


def test_load_headway_file(tmp_path):
    path = tmp_path / "gaps.txt"
    path.write_text("# field data\n12.5\n\n3.0\n50\n")
    d = load_headway_file(path)
    assert d.samples.tolist() == [3.0, 12.5, 50.0]


def test_load_headway_file_reports_bad_lines(tmp_path):
    path = tmp_path / "gaps.txt"
    path.write_text("12.5\nbogus\n-3.0\n7,5\n")
    with pytest.raises(ValidationError) as exc:
        load_headway_file(path)
    msg = str(exc.value)
    assert "line 2" in msg and "line 3" in msg and "line 4" in msg


def test_load_headway_file_needs_two_values(tmp_path):
    path = tmp_path / "gaps.txt"
    path.write_text("# only a comment\n4.0\n")
    with pytest.raises(ValidationError):
        load_headway_file(path)


# -------------------------------------------------------------- validation

def test_family_parameter_validation():
    with pytest.raises(ValidationError):
        ExponentialHeadway(rate=0.0)
    with pytest.raises(ValidationError):
        ExponentialHeadway(rate=-1.0)
    with pytest.raises(ValidationError):
        UniformHeadway(low=-1.0, high=5.0)
    with pytest.raises(ValidationError):
        UniformHeadway(low=5.0, high=5.0)
    with pytest.raises(ValidationError):
        LognormalHeadway(log_mean=0.0, log_sd=0.0)
    with pytest.raises(ValidationError):
        DeterministicHeadway(spacing=-2.0)
    DeterministicHeadway(spacing=0.0)  # mass at zero is allowed
