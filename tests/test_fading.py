"""Rayleigh fading channel: success law and propagation statistics."""

import math

import numpy as np
import pytest
import scipy.integrate
from conftest import scalar_stats

from vanetprop import (
    ContentionModel,
    DegenerateProcessError,
    DeterministicHeadway,
    DistanceStats,
    EmpiricalHeadway,
    ExponentialHeadway,
    FadingModel,
    LognormalHeadway,
    NumericError,
    UniformHeadway,
    ValidationError,
    cdf,
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
from vanetprop import analytic
from vanetprop.analytic import sweep_stats
from vanetprop import quad
from vanetprop.cli import main


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


def test_hop_failure_near_transparent_channel_keeps_its_digits():
    # the moments' tolerance refines the stacked F_P too, far below the 1e-14
    # floor of its own stop rule
    exact = 1e-12 / (0.2 + 1e-12)
    assert hop_failure_prob(model(c=1e-12), EXP) == pytest.approx(exact, rel=1e-9)


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


def test_fading_stats_takes_one_quadrature(monkeypatch):
    # F_P, E[H p_s(H)] and E[H^2 p_s(H)] as one stacked integrand per point
    calls = []
    real = analytic.integrate_semi_infinite

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(analytic, "integrate_semi_infinite", counted)
    fading_stats(model(c=0.001, alpha=2.0), LognormalHeadway(log_mean=1.5, log_sd=0.6))
    assert len(calls) == 1


@pytest.mark.parametrize("d, f", [
    (ExponentialHeadway(rate=0.01), model()),   # the configs/fading.cfg link budget
    (ExponentialHeadway(rate=1.0), model()),
    *((LognormalHeadway(log_mean=1.5, log_sd=0.6), model(c=0.001, alpha=alpha))
      for alpha in (1.0, 3.5, 6.0)),
])
def test_infinite_support_is_mapped_at_the_law_s_scale(monkeypatch, d, f):
    # tau = mean * x puts the mass near x ~ 1 of the semi-infinite map, so the
    # sweep's points converge on the first level of 32 panels
    results = []
    real = analytic.integrate_semi_infinite

    def captured(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(analytic, "integrate_semi_infinite", captured)
    f.hop_law(d)
    assert [r.evaluations for r in results] == [15 * 32]


def test_heavy_tailed_hop_law_matches_a_log_space_oracle():
    # log_sd = 3 spreads the law over e^(1.5 +- 9). `_expect` maps it at its
    # mean, tau = e^6 x (about 403 x), and x = t/(1-t): the mass of F_P and of
    # E[H p(H)] spans t from ~0.35 to ~1 - 3e-4, and that of E[H^2 p(H)] sits
    # within ~6e-3 of t = 1, so the panels must resolve a tail at every scale
    d = LognormalHeadway(log_mean=1.5, log_sd=3.0)
    f = model(c=1e-6, alpha=1.0, d0=3.0)
    _, fail, m1, m2 = f.hop_law(d)
    for k, got in ((0, fail), (1, m1), (2, m2)):
        def g(u, k=k):  # H = e^u with u ~ Normal(1.5, 3^2)
            t = math.exp(u)
            x = 1e-6 * t / 3.0
            return math.exp(-0.5 * ((u - 1.5) / 3.0) ** 2) / (3.0 * math.sqrt(2.0 * math.pi)) \
                * (-math.expm1(-x) if k == 0 else t ** k * math.exp(-x))
        oracle, _ = scipy.integrate.quad(g, 1.5 - 40.0 * 3.0, 1.5 + 40.0 * 3.0,
                                         points=[1.5, 1.5 + 15.0, 1.5 + 30.0],
                                         epsabs=0.0, epsrel=1e-13, limit=500)
        assert got == pytest.approx(oracle, rel=1e-10)


def _log_space_q(f, log_mean, log_sd):
    # q = E[p_s(H)] with H = exp(log_mean + log_sd z), z ~ Normal(0, 1): p_s
    # falls from 1 to 0 around z_c, where c (H/d0)^alpha = 1
    def g(z):
        log_x = math.log(f.decay) + f.path_loss_exp * (log_mean + log_sd * z
                                                       - math.log(f.ref_distance))
        p = math.exp(-math.exp(log_x)) if log_x < 50.0 else 0.0
        return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) * p

    z_c = (math.log(f.ref_distance) - math.log(f.decay) / f.path_loss_exp - log_mean) / log_sd
    q, _ = scipy.integrate.quad(g, -40.0, 40.0, points=[0.0, z_c],
                                epsabs=0.0, epsrel=1e-13, limit=500)
    return q


# from log_sd 17 the law's mean, e^(1.5 + log_sd^2 / 2), sits so far above its
# mass that `_expect`'s map puts all of it before the first node, and q reads 1
_MAPPED_AT_THE_MEAN = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 2: a heavy lognormal law mapped at its mean gives q = 1")


@pytest.mark.parametrize("log_sd", [0.6, 15.0, pytest.param(17.0, marks=_MAPPED_AT_THE_MEAN),
                                    pytest.param(20.0, marks=_MAPPED_AT_THE_MEAN)])
def test_heavy_lognormal_q_matches_a_log_space_oracle(log_sd):
    # at log_sd 15 to 20 the true q is about 0.54: half of the law lies below
    # the ~30 m where hops start failing
    f = model(c=0.001, alpha=2.0)
    got = f.hop_law(LognormalHeadway(log_mean=1.5, log_sd=log_sd))[0]
    assert got == pytest.approx(_log_space_q(f, 1.5, log_sd), rel=1e-12)


@pytest.mark.parametrize("log_sd", [15.0, pytest.param(20.0, marks=_MAPPED_AT_THE_MEAN)])
def test_analyze_heavy_lognormal_point_is_right_or_refused(tmp_path, log_sd):
    # never a wrong q_hop at exit 0: the oracle's q, or a typed error
    out = tmp_path / "q.csv"
    code = main(["analyze", "--scenario", "fading", "--headway", "lognormal",
                 "--log-mean", "1.5", "--log-sd", str(log_sd), "--pt", "1", "--gain", "1",
                 "--d0", "1", "--alpha", "2", "--pth", "0.001", "--out", str(out)])
    row = out.read_text().splitlines()[-1].split(",")
    q = _log_space_q(model(c=0.001, alpha=2.0), 1.5, log_sd)
    assert code != 0 or float(row[1]) == pytest.approx(q, rel=1e-12)


@pytest.mark.parametrize("log_sd", [17.0, 20.0])
def test_simulate_heavy_lognormal_point_matches_the_oracle(tmp_path, log_sd):
    # the simulator reads no quadrature, so it arbitrates where the hop law
    # mapped at the mean fails: E[N] = q / (1 - q) is about 1.17 and 1.14 here
    q = _log_space_q(model(c=0.001, alpha=2.0), 1.5, log_sd)
    outs = []
    for workers in (1, 2):
        outs.append(tmp_path / f"w{workers}.csv")
        code = main(["simulate", "--scenario", "fading", "--headway", "lognormal",
                     "--log-mean", "1.5", "--log-sd", str(log_sd), "--pt", "1", "--gain", "1",
                     "--d0", "1", "--alpha", "2", "--pth", "0.001", "--trials", "200000",
                     "--workers", str(workers), "--out", str(outs[-1])])
        assert code == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    header, row = outs[0].read_text().splitlines()[-2:]
    stats = dict(zip(header.split(","), map(float, row.split(","))))
    assert abs(stats["mean_N"] - q / (1.0 - q)) <= 4.0 * stats["ci95_mean_N"]


def test_canonical_fading_point_takes_few_levels(monkeypatch):
    # the lognormal alpha = 2 point of the benchmark sweep: each integrand call
    # is one level of the quadrature, so this bounds the numpy overhead
    levels, evals = [], []
    real = quad.integrate

    def counted(f, *args, **kwargs):
        def g(t):
            levels.append(t.size)
            return f(t)
        res = real(g, *args, **kwargs)
        evals.append(res.evaluations)
        return res

    monkeypatch.setattr(quad, "integrate", counted)
    fading_stats(model(c=0.001, alpha=2.0), LognormalHeadway(log_mean=1.5, log_sd=0.6))
    assert len(levels) <= 4
    assert evals == [sum(levels)] and evals[0] <= 1200


def test_sweep_stats_is_distance_stats_at_each_point(monkeypatch):
    # chunks mixing mapped laws that stop on the first level, mapped laws that
    # refine, finite, atomic and degenerate laws, points that share one
    # headway object with points that have their own, non-finite integrands,
    # and contention points, with their own typed errors
    laws = [ExponentialHeadway(rate=0.2), LognormalHeadway(log_mean=1.5, log_sd=0.6),
            LognormalHeadway(log_mean=1.5, log_sd=3.0), UniformHeadway(low=2.0, high=20.0),
            DeterministicHeadway(spacing=5.0), DeterministicHeadway(spacing=0.0),
            EmpiricalHeadway.from_samples([1.0, 2.0, 9.0]), ExponentialHeadway(rate=1e-3)]
    points = [(d, model(c=c, alpha=a)) for d in laws for c, a in ((0.05, 1.0), (1e-3, 6.0))]
    first = analytic._first_level_laws(points[:analytic._CHUNK])
    assert any(first) and not all(first)
    # a link sweep over one headway object, between equal laws of their own
    shared = LognormalHeadway(log_mean=1.5, log_sd=0.6)
    sweep = [(shared if i % 4 else LognormalHeadway(1.5, 0.6), model(c=1e-3, alpha=float(a)))
             for i, a in enumerate(np.linspace(1.0, 6.0, analytic._CHUNK))]
    pdf_calls = []
    real_pdf = LognormalHeadway.pdf
    monkeypatch.setattr(LognormalHeadway, "pdf",
                        lambda self, x: pdf_calls.append(self) or real_pdf(self, x))
    first = analytic._first_level_laws(sweep)
    monkeypatch.undo()
    assert all(first)
    assert len(pdf_calls) == 1 + analytic._CHUNK // 4
    assert sum(d is shared for d in pdf_calls) == 1
    # chunks that go point by point: a headway of its own and a shared one
    # whose integrands are non-finite, among laws that alone stop on level one
    heavy = LognormalHeadway(log_mean=700.0, log_sd=0.6)
    points += [*sweep,
               (LognormalHeadway(log_mean=700.0, log_sd=0.6), model(c=1e-3, alpha=2.0)),
               points[0],
               (heavy, model(c=1e-3, alpha=2.0)), sweep[1], (heavy, model(c=0.05, alpha=1.0)),
               sweep[2], (heavy, model(c=1e-3, alpha=3.0))]
    # contention points among them: a heavy lognormal's variance overflows,
    # and p_s = 1 with F_H(L) = 1 never fails a hop
    contention = [(EXP, ContentionModel(p_s=0.9, max_range=100.0)),
                  (heavy, ContentionModel(p_s=0.9, max_range=100.0)),
                  (UniformHeadway(0.0, 10.0), ContentionModel(p_s=1.0, max_range=100.0))]
    for k, point in enumerate(contention * 3):
        points.insert(5 + 13 * k, point)

    def alone(stats, d, m):
        try:
            return repr(stats(d, m))
        except (DegenerateProcessError, NumericError) as exc:
            return f"{type(exc).__name__}: {exc}"

    results = sweep_stats(points)
    got = [f"{type(r).__name__}: {r}" if isinstance(r, Exception) else repr(r)
           for r in results]
    assert got == [alone(distance_stats, d, m) for d, m in points]
    # and what Python floats give, point by point
    assert got == [alone(scalar_stats, d, m) for d, m in points]
    assert sum(g.startswith("NumericError: integrand") for g in got) == 4
    assert sum(g.startswith("NumericError: lognormal variance") for g in got) == 3
    assert sum(g.startswith("DegenerateProcessError") for g in got) == 2 + 3
    # one record type for both channels; the bounds are contention-only
    records = [(r, m) for r, (_, m) in zip(results, points) if not isinstance(r, Exception)]
    assert {type(r) for r, _ in records} == {DistanceStats}
    assert {type(m) for _, m in records} == {FadingModel, ContentionModel}
    for r, m in records:
        bounds = (r.mean_lower, r.mean_upper, r.var_lower, r.var_upper)
        if isinstance(m, FadingModel):
            assert bounds == (None, None, None, None)
        else:
            assert all(math.isfinite(b) for b in bounds)


def test_uniform_hop_law_matches_its_closed_form_at_alpha_one():
    # narrow supports and edges off the quadrature nodes: the support's edges
    # are the panels' edges, so no node spacing can step over them. q = 1 - F_P
    # keeps F_P's rounding (~1e-15 absolute), hence the absolute term.
    rng = np.random.default_rng(20)
    checked = 0
    for _ in range(400):
        low = float(rng.uniform(0.0, 50.0))
        width = 0.01 if rng.random() < 0.5 else float(rng.uniform(0.01, 30.0))
        d0, c = float(rng.uniform(1.0, 20.0)), float(rng.uniform(0.001, 3.0))
        k = c / d0  # q = E[e^{-kH}] at alpha = 1
        q = (math.exp(-k * low) - math.exp(-k * (low + width))) / (k * width)
        if q < 1e-6:
            continue
        got = model(c=c, d0=d0).hop_law(UniformHeadway(low, low + width))[0]
        assert got == pytest.approx(q, rel=1e-9, abs=1e-14), (low, width, d0, c)
        checked += 1
    assert checked > 200


@pytest.mark.parametrize("ds", [0.25, 0.125, 0.0625, 0.03125])
def test_cdf_solves_past_a_uniform_edge_between_grid_points(ds):
    # the kernel mass E[p; H <= max_s] and 1 - q come from the same support,
    # so the march no longer overshoots 1
    d = UniformHeadway(2.197719377303096, 4.1977193773030965)
    f = model(c=math.log(2.0), d0=3.0)
    curve = cdf(d, f, ds, 300.0)
    assert curve.values[0] == pytest.approx(hop_failure_prob(f, d), abs=1e-12)
    assert np.all(np.diff(curve.values) >= 0.0)
    assert curve.values[-1] == pytest.approx(1.0, abs=1e-9)


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
