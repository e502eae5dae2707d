"""Closed-form propagation statistics under the contention model."""

import math

import numpy as np
import pytest
from conftest import any_point, random_point, sandwich_violations

from vanetprop import (
    ContentionModel,
    DegenerateProcessError,
    DeterministicHeadway,
    EmpiricalHeadway,
    ExponentialHeadway,
    UniformHeadway,
    ValidationError,
    cdf,
    distance_stats,
    mean_cluster_size,
    mean_distance,
    mean_distance_bounds,
    variance_bounds,
    variance_paper,
    variance_renewal,
)

EXP = ExponentialHeadway(rate=0.2)
M_EXP = ContentionModel(p_s=0.9, max_range=100.0)


# ---------------------------------------------------------- frozen values

def test_mean_distance_frozen():
    assert mean_distance(EXP, M_EXP) == pytest.approx(44.999997217442676, rel=1e-12)
    u = UniformHeadway(0.0, 10.0)
    assert mean_distance(u, ContentionModel(0.5, 100.0)) == pytest.approx(5.0, rel=1e-12)
    det = DeterministicHeadway(spacing=50.0)
    assert mean_distance(det, ContentionModel(0.5, 100.0)) == pytest.approx(50.0, rel=1e-12)


def test_mean_distance_bounds_frozen():
    lo, hi = mean_distance_bounds(EXP, M_EXP)
    assert lo == pytest.approx(44.408301536260765, rel=1e-12)
    assert hi == pytest.approx(44.99999731019462, rel=1e-12)
    lo_u, hi_u = mean_distance_bounds(UniformHeadway(0.0, 10.0), ContentionModel(0.5, 100.0))
    assert lo_u == pytest.approx(4.978075235389156, rel=1e-12)
    assert hi_u == pytest.approx(5.0, rel=1e-12)


def test_variances_frozen():
    assert variance_paper(EXP, M_EXP) == pytest.approx(449.99982423512284, rel=1e-12)
    assert variance_renewal(EXP, M_EXP) == pytest.approx(2474.9995362404525, rel=1e-12)
    m = ContentionModel(0.5, 100.0)
    u = UniformHeadway(0.0, 10.0)
    assert variance_paper(u, m) == pytest.approx(100.0 / 3.0, rel=1e-12)
    assert variance_renewal(u, m) == pytest.approx(175.0 / 3.0, rel=1e-12)
    det = DeterministicHeadway(spacing=50.0)
    assert variance_renewal(det, m) == pytest.approx(5000.0, rel=1e-12)
    assert variance_paper(det, m) == pytest.approx(2500.0, rel=1e-12)


def test_variance_bounds_frozen():
    lo, hi = variance_bounds(EXP, M_EXP)
    assert lo == pytest.approx(3.756451867396457e-05, rel=1e-9)
    assert hi == pytest.approx(4499.999768583982, rel=1e-12)
    lo_u, hi_u = variance_bounds(UniformHeadway(0.0, 10.0), ContentionModel(0.5, 100.0))
    assert lo_u == 0.0
    assert hi_u == pytest.approx(500.0, rel=1e-12)


def test_mean_cluster_size_frozen():
    assert mean_cluster_size(EXP, M_EXP) == pytest.approx(8.999999814496181, rel=1e-12)
    assert mean_cluster_size(UniformHeadway(0.0, 10.0), ContentionModel(0.5, 100.0)) == \
        pytest.approx(1.0, rel=1e-12)


# --------------------------------------- independent compound-geometric oracle

def geometric_sum_moments(mu, var, p):
    """Mean and variance of a geometric(p) number of iid gaps.

    Valid whenever every headway fits inside the transmission range, so a
    hop fails only through the success coin. Derived by conditioning on
    the accepted-hop count, independently of the formulas under test.
    """
    mean = p * mu / (1.0 - p)
    variance = p * var / (1.0 - p) + p * mu * mu / (1.0 - p) ** 2
    return mean, variance


@pytest.mark.parametrize("p_s", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("d", [
    UniformHeadway(0.0, 10.0),
    UniformHeadway(2.0, 8.0),
    DeterministicHeadway(spacing=50.0),
    EmpiricalHeadway.from_samples([1.5, 3.0, 3.0, 7.25, 12.0, 40.0]),
])
def test_closed_forms_match_compound_geometric(d, p_s):
    m = ContentionModel(p_s=p_s, max_range=100.0)
    mean_o, var_o = geometric_sum_moments(d.mean(), d.variance(), p_s)
    assert mean_distance(d, m) == pytest.approx(mean_o, rel=1e-9, abs=1e-12)
    assert variance_renewal(d, m) == pytest.approx(var_o, rel=1e-9, abs=1e-12)
    assert mean_cluster_size(d, m) == pytest.approx(p_s / (1.0 - p_s), rel=1e-9)
    lo, hi = mean_distance_bounds(d, m)
    assert lo <= mean_o * (1.0 + 1e-12) + 1e-12
    assert hi >= mean_o * (1.0 - 1e-12) - 1e-12


# ------------------------------------------------------------------ bounds

def test_bounds_sandwich_on_random_points():
    assert sandwich_violations(250, seed=20260822) == []


def test_bounds_sandwich_on_the_whole_domain():
    # the range from below the mean gap to far above it, all five families
    assert sandwich_violations(1000, seed=20261019, point=any_point) == []


def test_variance_bounds_order():
    rng = np.random.default_rng(99)
    for _ in range(100):
        d, m = random_point(rng)
        lo, hi = variance_bounds(d, m)
        assert 0.0 <= lo <= hi


# ------------------------------------------------- structural invariants

def test_mean_ignores_headway_mass_beyond_range():
    # everything past the range cutoff only enters through its total
    # probability, never through where it sits
    below = [2.0, 5.0, 9.0, 14.0, 30.0, 71.0]
    a = EmpiricalHeadway.from_samples(below + [120.0, 250.0])
    b = EmpiricalHeadway.from_samples(below + [101.0, 9000.0])
    m = ContentionModel(p_s=0.8, max_range=100.0)
    assert abs(mean_distance(a, m) - mean_distance(b, m)) <= 1e-12
    assert abs(variance_paper(a, m) - variance_paper(b, m)) <= 1e-12
    assert abs(variance_renewal(a, m) - variance_renewal(b, m)) <= 1e-12
    assert abs(mean_cluster_size(a, m) - mean_cluster_size(b, m)) <= 1e-12


def test_mean_monotone_in_success_probability():
    prev = -1.0
    for p_s in np.linspace(0.05, 0.95, 19):
        val = mean_distance(EXP, ContentionModel(float(p_s), 100.0))
        assert val > prev
        prev = val
    prev = -1.0
    for p_s in np.linspace(0.05, 0.95, 19):
        val = mean_cluster_size(EXP, ContentionModel(float(p_s), 100.0))
        assert val > prev
        prev = val


def test_mean_has_interior_maximum_in_density():
    # sparse traffic starves hops, dense traffic shortens them; the mean
    # propagation distance peaks at an intermediate exponential rate
    m = ContentionModel(p_s=0.9, max_range=100.0)
    rates = np.geomspace(0.01, 1.0, 40)
    vals = [mean_distance(ExponentialHeadway(rate=float(r)), m) for r in rates]
    k = int(np.argmax(vals))
    assert 0 < k < len(vals) - 1
    assert vals[0] < 0.9 * vals[k]
    assert vals[-1] < 0.9 * vals[k]


# ------------------------------------------------------- degenerate cases

def test_certain_success_with_bounded_headway_is_degenerate():
    d = UniformHeadway(0.0, 10.0)
    m = ContentionModel(p_s=1.0, max_range=100.0)
    for fn in (mean_distance, mean_distance_bounds, variance_paper,
               variance_renewal, variance_bounds, mean_cluster_size,
               distance_stats):
        with pytest.raises(DegenerateProcessError):
            fn(d, m)
    with pytest.raises(DegenerateProcessError):
        cdf(d, m, grid_step=1.0, max_s=200.0)


def test_certain_success_with_unbounded_headway_computes():
    m = ContentionModel(p_s=1.0, max_range=100.0)
    val = mean_distance(EXP, m)
    assert math.isfinite(val) and val > 0.0
    st = distance_stats(EXP, m)
    assert st.mean == pytest.approx(val)


def test_zero_success_probability():
    m = ContentionModel(p_s=0.0, max_range=100.0)
    assert mean_distance(EXP, m) == 0.0
    assert mean_distance_bounds(EXP, m) == (0.0, 0.0)
    assert variance_paper(EXP, m) == 0.0
    assert variance_renewal(EXP, m) == 0.0
    assert variance_bounds(EXP, m) == (0.0, 0.0)
    assert mean_cluster_size(EXP, m) == 0.0


# ------------------------------------------------------------ aggregation

def test_distance_stats_agrees_with_parts():
    st = distance_stats(EXP, M_EXP)
    assert st.mean == mean_distance(EXP, M_EXP)
    assert (st.mean_lower, st.mean_upper) == mean_distance_bounds(EXP, M_EXP)
    assert st.var_paper == variance_paper(EXP, M_EXP)
    assert st.var_renewal == variance_renewal(EXP, M_EXP)
    assert (st.var_lower, st.var_upper) == variance_bounds(EXP, M_EXP)
    assert st.cluster_size == mean_cluster_size(EXP, M_EXP)


def test_distance_stats_fields_are_finite_and_nonnegative():
    rng = np.random.default_rng(7)
    for _ in range(60):
        d, m = random_point(rng)
        st = distance_stats(d, m)
        for name in ("mean", "mean_lower", "mean_upper", "var_paper",
                     "var_renewal", "var_lower", "var_upper", "cluster_size"):
            v = getattr(st, name)
            assert math.isfinite(v) and v >= 0.0, f"{name}={v} for {d!r}, {m!r}"
        assert st.var_renewal >= st.var_paper * (1.0 - 1e-12)


def test_cdf_entry_point_delegates_to_solver():
    curve = cdf(EXP, M_EXP, grid_step=0.5, max_s=150.0)
    assert curve.values[0] == pytest.approx(0.10000000185503821, abs=1e-12)
    assert curve.grid_step == 0.5


# -------------------------------------------------------------- validation

def test_contention_model_validation():
    with pytest.raises(ValidationError):
        ContentionModel(p_s=1.2, max_range=100.0)
    with pytest.raises(ValidationError):
        ContentionModel(p_s=-0.1, max_range=100.0)
    with pytest.raises(ValidationError):
        ContentionModel(p_s=0.5, max_range=0.0)
    with pytest.raises(ValidationError):
        ContentionModel(p_s=0.5, max_range=-5.0)
    with pytest.raises(ValidationError):
        ContentionModel(p_s=0.5, max_range=math.inf)
    with pytest.raises(ValidationError):
        ContentionModel(p_s=math.nan, max_range=100.0)
