"""Rayleigh fading channel: success law and propagation statistics."""

import math

import numpy as np
import pytest
import scipy.integrate

from vanetprop import (
    ContentionModel,
    DegenerateProcessError,
    DeterministicHeadway,
    EmpiricalHeadway,
    ExponentialHeadway,
    FadingModel,
    LognormalHeadway,
    UniformHeadway,
    ValidationError,
    distance_stats,
    fading_stats,
    hop_failure_prob,
    mean_cluster_size,
    mean_distance,
    mean_distance_fading,
    success_prob,
    variance_fading_paper,
    variance_fading_renewal,
    variance_renewal,
)
from vanetprop import fading as fading_module


def model(c=0.05, alpha=1.0, d0=1.0):
    # P_th / (P_t K) = c with P_t = K = 1
    return FadingModel(tx_power=1.0, gain_const=1.0, ref_distance=d0,
                       path_loss_exp=alpha, power_threshold=c)


EXP = ExponentialHeadway(rate=0.2)


# ------------------------------------------------------------ success_prob

def test_success_prob_spot_values():
    assert success_prob(model(c=1.0, alpha=2.0), 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert success_prob(model(c=0.05, alpha=1.0), 20.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert success_prob(model(), 1e-12) == pytest.approx(1.0, abs=1e-9)


def test_success_prob_rejects_nonpositive_gap():
    f = model()
    for tau in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValidationError):
            success_prob(f, tau)


def test_success_prob_monotonicities():
    taus = np.linspace(0.5, 80.0, 60)
    vals = [success_prob(model(), float(t)) for t in taus]
    assert all(b < a for a, b in zip(vals, vals[1:]))

    # for gaps beyond the reference distance, a steeper loss exponent hurts;
    # c is small enough that exp never underflows to a tie at alpha = 6
    vals = [success_prob(model(c=1e-6, alpha=float(a)), 20.0)
            for a in np.linspace(1.0, 6.0, 11)]
    assert all(b < a for a, b in zip(vals, vals[1:]))

    vals = [success_prob(model(c=float(c)), 10.0) for c in np.linspace(0.01, 2.0, 30)]
    assert all(b < a for a, b in zip(vals, vals[1:]))  # decreasing in P_th

    for name, better in (("tx_power", 2.0), ("gain_const", 3.0), ("ref_distance", 4.0)):
        base = dict(tx_power=1.0, gain_const=1.0, ref_distance=1.0,
                    path_loss_exp=2.0, power_threshold=0.05)
        low = success_prob(FadingModel(**base), 10.0)
        base[name] = better
        assert success_prob(FadingModel(**base), 10.0) > low


def test_decay_constant():
    f = FadingModel(tx_power=0.1, gain_const=2.0, ref_distance=1.0,
                    path_loss_exp=2.0, power_threshold=0.01)
    assert f.decay == pytest.approx(0.05, rel=1e-15)


# -------------------------------------------------------- hop failure prob

def test_hop_failure_exponential_closed_form():
    # E[1 - e^{-cH}] = c / (lambda + c) = 0.05 / 0.25
    assert hop_failure_prob(model(), EXP) == pytest.approx(0.2, rel=1e-9)


def test_hop_failure_point_mass_is_exact():
    f = model()
    d = DeterministicHeadway(spacing=30.0)
    assert hop_failure_prob(f, d) == pytest.approx(1.0 - success_prob(f, 30.0), abs=1e-15)


def test_hop_failure_near_transparent_channel():
    # F_P ~ c mu_H; expm1 keeps the tiny value in full precision
    f = model(c=1e-12)
    exact = 1e-12 / (0.2 + 1e-12)
    assert hop_failure_prob(f, EXP) == pytest.approx(exact, rel=1e-6)


def test_hop_failure_blocked_channel():
    assert hop_failure_prob(model(c=1e8), EXP) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("d", [
    EXP,
    LognormalHeadway(log_mean=1.5, log_sd=0.6),
    EmpiricalHeadway.from_samples([1.0, 4.0, 4.0, 9.0, 22.0]),
])
def test_shared_closed_forms_accept_a_fading_model(d):
    f = model(c=0.08, alpha=2.0, d0=3.0)
    fp = hop_failure_prob(f, d)
    assert mean_distance(d, f) == mean_distance_fading(f, d)
    assert variance_renewal(d, f) == variance_fading_renewal(f, d)
    assert mean_cluster_size(d, f) == (1.0 - fp) / fp


def test_fading_stats_takes_three_quadratures(monkeypatch):
    # F_P, E[H p_s(H)] and E[H^2 p_s(H)], each once per point
    calls = []
    real = fading_module.integrate_semi_infinite

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(fading_module, "integrate_semi_infinite", counted)
    fading_stats(model(c=0.001, alpha=2.0), LognormalHeadway(log_mean=1.5, log_sd=0.6))
    assert len(calls) == 3


@pytest.mark.parametrize("d", [
    EXP,
    UniformHeadway(2.0, 8.0),
    DeterministicHeadway(spacing=12.0),
    EmpiricalHeadway.from_samples([1.0, 4.0, 4.0, 9.0, 22.0]),
])
def test_failure_and_success_masses_sum_to_one(d):
    f = model(c=0.03, alpha=2.0, d0=5.0)
    at = d.atoms()
    if at is not None:
        values, weights = at
        succ = float(sum(w * success_prob(f, float(v)) for v, w in zip(values, weights)))
    else:
        succ, _ = scipy.integrate.quad(lambda t: d.pdf(t) * success_prob(f, t),
                                       0.0, np.inf, limit=400)
    assert hop_failure_prob(f, d) + succ == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------ distance statistics

def test_fading_moments_exponential_closed_forms():
    f = model()
    assert mean_distance_fading(f, EXP) == pytest.approx(16.0, rel=1e-9)
    assert variance_fading_paper(f, EXP) == pytest.approx(128.0, rel=1e-9)
    assert variance_fading_renewal(f, EXP) == pytest.approx(384.0, rel=1e-9)


def test_fading_moments_point_mass_geometric_oracle():
    f = model()
    h = 50.0
    p = success_prob(f, h)   # e^{-2.5}
    d = DeterministicHeadway(spacing=h)
    assert mean_distance_fading(f, d) == pytest.approx(h * p / (1.0 - p), rel=1e-12)
    assert variance_fading_paper(f, d) == pytest.approx(h * h * p / (1.0 - p), rel=1e-12)
    assert variance_fading_renewal(f, d) == pytest.approx(
        h * h * p / (1.0 - p) ** 2, rel=1e-12)


def test_fading_moments_vanish_when_channel_blocked():
    f = model(c=1e8)
    assert mean_distance_fading(f, EXP) < 1e-9
    assert variance_fading_renewal(f, EXP) < 1e-9


def test_mean_decreasing_in_threshold():
    prev = math.inf
    for c in np.geomspace(1e-3, 10.0, 20):
        val = mean_distance_fading(model(c=float(c)), EXP)
        assert val < prev
        prev = val


@pytest.mark.parametrize("d", [
    EmpiricalHeadway.from_samples([2.0, 3.5, 5.0, 6.5, 8.0]),
    UniformHeadway(2.0, 8.0),
])
def test_degenerate_channel_matches_contention_limit(d):
    # with a near-transparent channel and bounded gaps, the fading law is a
    # plain success coin with p_s = 1 - F_P, so both modules must agree;
    # p_s = 1 - 5e-12 rounds against the double grid at 1, so the round
    # trip through 1 - q caps the achievable agreement around 1e-5
    f = model(c=1e-12)
    fp = hop_failure_prob(f, d)
    assert 0.0 < fp < 1e-10
    st = fading_stats(f, d)
    assert st.q_hop == pytest.approx(1.0 - fp, abs=1e-15)
    ref = distance_stats(d, ContentionModel(p_s=1.0 - fp, max_range=100.0))
    assert st.mean == pytest.approx(ref.mean, rel=1e-4)
    assert st.var_renewal == pytest.approx(ref.var_renewal, rel=1e-4)


def test_degenerate_channel_convergence_rate():
    # the fading/contention gap closes at first order in the decay constant
    d = EmpiricalHeadway.from_samples([2.0, 3.5, 5.0, 6.5, 8.0])
    rel_diffs = []
    for c in (1e-4, 1e-6, 1e-8):
        f = model(c=c)
        fp = hop_failure_prob(f, d)
        ref = distance_stats(d, ContentionModel(p_s=1.0 - fp, max_range=100.0))
        got = mean_distance_fading(f, d)
        rel = abs(got - ref.mean) / ref.mean
        assert rel < 10.0 * c
        rel_diffs.append(rel)
    assert rel_diffs[0] > rel_diffs[1] > rel_diffs[2]


def test_zero_spacing_never_fails_and_is_degenerate():
    d = DeterministicHeadway(spacing=0.0)
    f = model()
    assert hop_failure_prob(f, d) == 0.0
    with pytest.raises(DegenerateProcessError):
        mean_distance_fading(f, d)
    with pytest.raises(DegenerateProcessError):
        fading_stats(f, d)


# ------------------------------------------------------------- aggregation

def test_fading_stats_agrees_with_parts():
    f = model(c=0.08, alpha=2.0, d0=3.0)
    st = fading_stats(f, EXP)
    assert st.q_hop == pytest.approx(1.0 - hop_failure_prob(f, EXP), rel=1e-12)
    assert st.mean == pytest.approx(mean_distance_fading(f, EXP), rel=1e-12)
    assert st.var_paper == pytest.approx(variance_fading_paper(f, EXP), rel=1e-12)
    assert st.var_renewal == pytest.approx(variance_fading_renewal(f, EXP), rel=1e-12)


@pytest.mark.parametrize("d", [
    EXP,
    UniformHeadway(2.0, 8.0),
    DeterministicHeadway(spacing=12.0),
    EmpiricalHeadway.from_samples([1.0, 4.0, 4.0, 9.0, 22.0]),
])
def test_fading_stats_fields_sane(d):
    st = fading_stats(model(c=0.1, alpha=1.5), d)
    assert 0.0 < st.q_hop < 1.0
    for v in (st.mean, st.var_paper, st.var_renewal):
        assert math.isfinite(v) and v >= 0.0
    assert st.var_renewal > st.var_paper


# -------------------------------------------------------------- validation

def test_fading_model_validation():
    good = dict(tx_power=1.0, gain_const=1.0, ref_distance=1.0,
                path_loss_exp=2.0, power_threshold=0.05)
    for name in good:
        bad = dict(good)
        bad[name] = 0.0
        with pytest.raises(ValidationError):
            FadingModel(**bad)
        bad[name] = -1.0
        with pytest.raises(ValidationError):
            FadingModel(**bad)
        bad[name] = math.nan
        with pytest.raises(ValidationError):
            FadingModel(**bad)


def test_path_loss_exponent_range():
    for alpha in (0.5, 0.99, 6.01, 20.0):
        with pytest.raises(ValidationError):
            model(alpha=alpha)
    model(alpha=1.0)
    model(alpha=6.0)
