"""Adaptive quadrature and the Volterra CDF solver."""

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
    NumericError,
    SimConfig,
    UniformHeadway,
    ValidationError,
    cdf,
    run,
    solve_printed_cdf,
    solve_renewal_cdf,
    success_prob,
)
from vanetprop import quad
from vanetprop.analytic import hop_failure_prob
from vanetprop.quad import (
    MONOTONICITY_TOL,
    CdfCurve,
    _lag_weights,
    _march,
    _repair,
    _series_inverse,
    integrate,
    integrate_semi_infinite,
)

SIX_GAPS = [2.0, 5.0, 5.0, 9.0, 14.0, 33.0]
ZERO_GAPS = [0.0, *SIX_GAPS[1:]]  # an atom at 0 puts weight on F_D(0)


def solver_families():
    rng = np.random.default_rng(42)
    return [
        ExponentialHeadway(rate=0.2),
        UniformHeadway(low=0.0, high=10.0),
        LognormalHeadway(log_mean=2.0, log_sd=0.5),
        DeterministicHeadway(spacing=50.0),
        EmpiricalHeadway.from_samples(np.minimum(rng.exponential(5.0, 300), 60.0)),
    ]


# --------------------------------------------------------------- integrate

def test_integrate_polynomial_exact():
    res = integrate(lambda t: t, 0.0, 1.0)
    assert abs(res.value - 0.5) < 1e-14
    assert res.evaluations >= 15


def test_integrate_exponential_density():
    res = integrate(lambda t: 0.2 * np.exp(-0.2 * t), 0.0, 100.0)
    assert res.value == pytest.approx(1.0 - math.exp(-20.0), rel=1e-10)
    oracle, _ = scipy.integrate.quad(lambda t: 0.2 * math.exp(-0.2 * t), 0.0, 100.0)
    assert res.value == pytest.approx(oracle, rel=1e-10)


def test_integrate_truncated_first_moment():
    res = integrate(lambda t: t * 0.2 * np.exp(-0.2 * t), 0.0, 100.0)
    assert res.value == pytest.approx(4.999999783578869, rel=1e-10)


def test_integrate_empty_interval():
    res = integrate(lambda t: 7.0, 3.0, 3.0)
    assert res.value == 0.0
    assert res.abs_error_estimate == 0.0


def test_integrate_rejects_bad_bounds():
    with pytest.raises(ValidationError):
        integrate(lambda t: t, 1.0, 0.0)
    with pytest.raises(ValidationError):
        integrate(lambda t: t, 0.0, math.inf)
    with pytest.raises(ValidationError):
        integrate(lambda t: t, math.nan, 1.0)
    with pytest.raises(ValidationError):
        integrate(lambda t: t, 0.0, 1.0, rel_tol=0.0)


def test_integrate_rejects_nan_integrand():
    with pytest.raises(NumericError):
        integrate(lambda t: math.nan, 0.0, 1.0)


def test_integrate_exhaustion_carries_estimate():
    with pytest.raises(NumericError) as exc:
        integrate(lambda t: np.exp(-t), 0.0, 50.0, rel_tol=1e-14, max_panels=2)
    err = exc.value
    assert err.estimate is not None and math.isfinite(err.estimate)
    assert err.error_estimate is not None and err.error_estimate > 0.0


# -------------------------------------------------- stacked integrands

def _kernel_stack(d, alpha, d0=3.0):
    """pdf times (1 - p, t p, t^2 p) for p(t) = exp(-(t/d0)^alpha), as fading stacks it."""
    def f(t):
        x = (t / d0) ** alpha
        p = np.exp(-x)
        return d.pdf(t) * np.array((-np.expm1(-x), t * p, t * t * p))
    return f


def _scipy_semi_infinite(g, breaks):
    """int_0^inf g by scipy, split at `breaks` (a density's jumps) and at the last one."""
    opts = dict(epsabs=0.0, epsrel=1e-13, limit=500)
    edge = max(breaks, default=50.0)
    head, _ = scipy.integrate.quad(g, 0.0, edge, points=breaks or None, **opts)
    tail, _ = scipy.integrate.quad(g, edge, np.inf, **opts)
    return head + tail


@pytest.mark.parametrize("d, breaks", [
    (ExponentialHeadway(rate=0.2), []),
    (LognormalHeadway(log_mean=1.5, log_sd=3.0), [0.1, 4.5, 200.0]),
    (UniformHeadway(low=2.0, high=20.0), [2.0, 20.0]),
], ids=["exponential", "lognormal_sd3", "uniform"])
@pytest.mark.parametrize("alpha", [2.0, 6.0])
def test_stacked_integrand_matches_scipy_per_component(d, breaks, alpha):
    f = _kernel_stack(d, alpha)
    res = integrate_semi_infinite(f, 0.0, rel_tol=1e-11)
    assert res.value.shape == res.abs_error_estimate.shape == (3,)
    for c in range(3):
        oracle = _scipy_semi_infinite(lambda t: float(f(np.array([t]))[c, 0]), breaks)
        assert res.value[c] == pytest.approx(oracle, rel=1e-9)


def test_a_small_component_meets_its_own_tolerance():
    # a joint stop rule would accept the narrow peak at the big sibling's
    # tolerance (~100); each component has its own
    def f(t):
        return np.array((1e12 * np.exp(-t), 1e3 * np.exp(-((t - 3.3) / 0.05) ** 2)))

    res = integrate(f, 0.0, 10.0, rel_tol=1e-10)
    peak = 1e3 * 0.05 * math.sqrt(math.pi)
    assert res.value[1] / res.value[0] < 1e-9
    assert res.value[0] == pytest.approx(1e12 * -math.expm1(-10.0), rel=1e-10)
    assert res.value[1] == pytest.approx(peak, rel=1e-10)
    assert np.all(res.abs_error_estimate <= 1e-10 * np.abs(res.value))


@pytest.mark.parametrize("bad", [0, 1])
def test_stacked_integrand_with_a_nan_component_raises(bad):
    def f(t):
        out = np.array((np.exp(-t), t * np.exp(-t)))
        out[bad, t > 0.7] = np.nan
        return out

    with pytest.raises(NumericError, match="non-finite value at x=0.7"):
        integrate(f, 0.0, 1.0)


def test_stacked_exhaustion_carries_the_estimate():
    with pytest.raises(NumericError) as exc:
        integrate(lambda t: np.array((np.exp(-t), np.sin(40.0 * t))), 0.0, 50.0,
                  rel_tol=1e-14, max_panels=40)
    err = exc.value
    assert err.estimate.shape == err.error_estimate.shape == (2,)
    assert np.all(np.isfinite(err.estimate)) and np.all(err.error_estimate > 0.0)


def test_stacked_empty_interval_gives_zeros():
    res = integrate(lambda t: np.array((t, 2.0 * t)), 1.0, 1.0)
    np.testing.assert_array_equal(res.value, [0.0, 0.0])


# ----------------------------------------------------- semi-infinite range

def test_semi_infinite_density_mass():
    res = integrate_semi_infinite(lambda t: 0.2 * np.exp(-0.2 * t), 0.0)
    assert res.value == pytest.approx(1.0, rel=1e-9)


def test_semi_infinite_damped_first_moment():
    # int_0^inf tau * 0.2 e^{-0.2 tau} e^{-0.05 tau} dtau = 0.2 / 0.25^2
    res = integrate_semi_infinite(
        lambda t: t * 0.2 * np.exp(-0.2 * t) * np.exp(-0.05 * t), 0.0)
    assert res.value == pytest.approx(3.2, rel=1e-9)


def test_semi_infinite_zero_function():
    assert integrate_semi_infinite(lambda t: 0.0, 0.0).value == 0.0


def test_semi_infinite_shifted_lower_bound():
    res = integrate_semi_infinite(lambda t: np.exp(-t), 2.0)
    assert res.value == pytest.approx(math.exp(-2.0), rel=1e-9)


def _decays(rates):
    return [lambda x, r=r: np.array((r * np.exp(-r * x), x * r * np.exp(-r * x)))
            for r in rates]


def test_first_level_of_many_integrands_is_each_one_s_own():
    # rates near 1 stop on the first level of the unit map, those far from it
    # refine; a first-level value is integrate_semi_infinite's, to the bit
    fs = _decays([0.02, 0.5, 1.0, 2.0, 60.0])
    got = quad.first_level_semi_infinite(fs, 1.5, 1e-11)
    first = []
    for f, v in zip(fs, got):
        ref = integrate_semi_infinite(f, 1.5, rel_tol=1e-11)
        first.append(ref.evaluations == 15 * 32)
        if first[-1]:
            assert v.tolist() == ref.value.tolist()
        else:
            assert v is None
    assert any(first) and not all(first)


def test_first_level_of_many_integrands_raises_where_one_is_non_finite():
    fs = [*_decays([1.0]), lambda x: np.array((np.full(x.shape, np.nan), x))]
    with pytest.raises(NumericError, match="non-finite"):
        quad.first_level_semi_infinite(fs, 0.0, 1e-11)


# ------------------------------------------------------------- CDF solver

@pytest.mark.parametrize("d", solver_families())
@pytest.mark.parametrize("p_s", [0.3, 0.7, 0.9])
def test_solver_matches_atom_at_zero(d, p_s):
    L = 100.0
    curve = solve_renewal_cdf(d, p_s, L, grid_step=0.5, max_s=150.0)
    assert abs(curve.values[0] - (1.0 - p_s * d.cdf(L))) <= 1e-12


def test_solver_atom_frozen_values():
    c1 = solve_renewal_cdf(ExponentialHeadway(rate=0.2), 0.9, 100.0, 0.5, 150.0)
    assert c1.values[0] == pytest.approx(0.10000000185503821, abs=1e-12)
    c2 = solve_renewal_cdf(LognormalHeadway(log_mean=2.0, log_sd=0.5), 0.7, 100.0, 0.5, 150.0)
    assert c2.values[0] == pytest.approx(0.3000000659730746, abs=1e-12)


def test_solver_deterministic_step_law():
    # spacing 50, p_s = 0.5, F_H(L) = 1: F_D(s) = 1 - 0.5^(floor(s/50) + 1)
    curve = solve_renewal_cdf(DeterministicHeadway(spacing=50.0), 0.5, 100.0,
                              grid_step=5.0, max_s=400.0)
    grid = curve.grid()
    oracle = 1.0 - 0.5 ** (np.floor(grid / 50.0 + 1e-12) + 1.0)
    assert float(np.max(np.abs(curve.values - oracle))) <= 1e-6
    assert curve.values[15] == pytest.approx(0.75, abs=1e-9)   # s = 75
    # plateaus between jumps
    assert curve.values[1] == curve.values[9]
    assert curve.values[11] == curve.values[19]


def _panjer_cdf(gaps, hop, step, n):
    """F_D at j * step, j < n, by Panjer's recursion (1981) for a geometric count.

    `hop` gives each gap's success probability p(h). The accepted hop puts
    t_i = P(H = i step) p(i step) on lattice point i; then
    g_0 = (1 - q) / (1 - t_0), g_k = sum_{i=1..k} t_i g_{k-i} / (1 - t_0) and
    F_D = cumsum(g). Every gap must sit on the lattice.
    """
    gaps = np.asarray(gaps, dtype=float)
    idx = np.rint(gaps / step).astype(int)
    assert np.all(idx * step == gaps)
    accept = np.array([hop(h) for h in gaps.tolist()]) / gaps.size
    t = np.zeros(n)
    np.add.at(t, idx[idx < n], accept[idx < n])
    g = np.zeros(n)
    g[0] = (1.0 - accept.sum()) / (1.0 - t[0])
    for k in range(1, n):
        g[k] = np.dot(t[1:k + 1], g[k - 1::-1]) / (1.0 - t[0])
    return np.cumsum(g)


@pytest.mark.parametrize("d, gaps, step", [
    (DeterministicHeadway(spacing=5.0), [5.0], 1.0),
    (EmpiricalHeadway.from_samples(SIX_GAPS), SIX_GAPS, 0.5),
    (EmpiricalHeadway.from_samples(SIX_GAPS + [120.0]), SIX_GAPS + [120.0], 1.0),
    (EmpiricalHeadway.from_samples(ZERO_GAPS), ZERO_GAPS, 0.5),
])
def test_solver_matches_panjer_lattice_oracle(d, gaps, step):
    curve = solve_renewal_cdf(d, 0.9, 100.0, step, 300.0)
    oracle = _panjer_cdf(gaps, lambda h: 0.9 if h <= 100.0 else 0.0, step, curve.values.size)
    assert float(np.max(np.abs(curve.values - oracle))) <= 1e-12


def fading(alpha, d0=15.0):
    """p(tau) = exp(-(tau/d0)^alpha): P_th = P_t = K = 1."""
    return FadingModel(tx_power=1.0, gain_const=1.0, ref_distance=d0,
                       path_loss_exp=alpha, power_threshold=1.0)


@pytest.mark.parametrize("d, gaps, step", [
    (DeterministicHeadway(spacing=5.0), [5.0], 1.0),
    (EmpiricalHeadway.from_samples(SIX_GAPS), SIX_GAPS, 0.5),
    (EmpiricalHeadway.from_samples(ZERO_GAPS), ZERO_GAPS, 0.5),
])
@pytest.mark.parametrize("alpha", [1.0, 3.0, 6.0])
def test_fading_solve_matches_panjer_lattice_oracle(d, gaps, step, alpha):
    f = fading(alpha)
    curve = cdf(d, f, step, 300.0)
    oracle = _panjer_cdf(gaps, lambda h: success_prob(f, h) if h > 0.0 else 1.0, step,
                         curve.values.size)
    assert float(np.max(np.abs(curve.values - oracle))) <= 1e-12


def test_solver_zero_success_probability_is_constant_one():
    curve = solve_renewal_cdf(ExponentialHeadway(rate=0.2), 0.0, 100.0, 1.0, 200.0)
    assert np.all(curve.values == 1.0)


def test_a_kernel_too_light_to_move_the_curve_solves_to_one_minus_q():
    # p(tau) <= exp(-ln2 (20/3)^2) ~ 4e-14 on the support, so the kernel mass
    # (~7e-15) is below the quadrature's floor: its trapezoid sum and its
    # integral disagree by a factor of 4, which no grid step can mend
    d = UniformHeadway(20.0, 22.0)
    m = FadingModel(1.0, 1.0, 3.0, 2.0, math.log(2.0))
    curve = cdf(d, m, 0.125, 300.0)
    fail = hop_failure_prob(d, m)
    assert float(np.max(np.abs(curve.values - fail))) <= 1e-14


def test_solver_degenerate_when_propagation_never_stops():
    with pytest.raises(DegenerateProcessError):
        solve_renewal_cdf(UniformHeadway(0.0, 10.0), 1.0, 100.0, 1.0, 200.0)


def test_solver_argument_validation():
    d = ExponentialHeadway(rate=0.2)
    with pytest.raises(ValidationError):
        solve_renewal_cdf(d, 0.5, 100.0, grid_step=11.0, max_s=200.0)  # > L/10
    with pytest.raises(ValidationError):
        solve_renewal_cdf(d, 0.5, 100.0, grid_step=0.0, max_s=200.0)
    with pytest.raises(ValidationError):
        solve_renewal_cdf(d, 0.5, 100.0, grid_step=1.0, max_s=50.0)   # < L
    with pytest.raises(ValidationError):
        solve_renewal_cdf(d, 1.5, 100.0, grid_step=1.0, max_s=200.0)
    with pytest.raises(ValidationError):
        solve_renewal_cdf(d, 0.5, -1.0, grid_step=1.0, max_s=200.0)


@pytest.mark.parametrize("solve", [solve_renewal_cdf, solve_printed_cdf])
def test_solver_checks_model_then_grid_then_degeneracy(solve):
    d = UniformHeadway(0.0, 10.0)  # with p_s = 1 every hop succeeds
    with pytest.raises(ValidationError, match="p_s must lie"):
        solve(d, 1.5, -1.0, 11.0, 50.0)
    with pytest.raises(ValidationError, match="max_range must be"):
        solve(d, 1.0, -1.0, 11.0, 50.0)
    with pytest.raises(ValidationError, match="grid_step must"):
        solve(d, 1.0, 100.0, 11.0, 50.0)
    with pytest.raises(ValidationError, match="max_s must"):
        solve(d, 1.0, 100.0, 1.0, math.inf)
    # the model's core names the degeneracy, for the solvers as for every closed form
    with pytest.raises(DegenerateProcessError, match="1 - q = 0.0"):
        solve(d, 1.0, 100.0, 1.0, 200.0)


@pytest.mark.parametrize("d", solver_families())
def test_solver_output_is_a_cdf(d):
    curve = solve_renewal_cdf(d, 0.8, 100.0, grid_step=0.5, max_s=300.0)
    v = curve.values
    assert np.all(v >= 0.0) and np.all(v <= 1.0)
    assert np.all(np.diff(v) >= 0.0)
    assert v[-1] > v[0]


def test_solver_grid_refinement_converges():
    d = ExponentialHeadway(rate=0.2)
    coarse = solve_renewal_cdf(d, 0.9, 100.0, grid_step=0.2, max_s=500.0)
    fine = solve_renewal_cdf(d, 0.9, 100.0, grid_step=0.1, max_s=500.0)
    sup = float(np.max(np.abs(fine.values[::2] - coarse.values)))
    assert sup < 1e-3


def test_cdf_curve_grid_and_repr():
    curve = solve_renewal_cdf(ExponentialHeadway(rate=0.2), 0.5, 100.0, 1.0, 120.0)
    g = curve.grid()
    assert g[0] == 0.0
    assert g[1] == 1.0
    assert g.size == curve.values.size == 121
    assert repr(curve) == "CdfCurve(grid_step=1.0, max_s=120.0, n=121)"


def test_printed_form_left_raw_for_comparison():
    # the printed middle branch drops to 1 - (1 + p_s) F_H(s) + ... and goes
    # negative for a point mass; keep it unrepaired and visibly different
    d = DeterministicHeadway(spacing=50.0)
    printed = solve_printed_cdf(d, 0.5, 100.0, grid_step=5.0, max_s=400.0)
    corrected = solve_renewal_cdf(d, 0.5, 100.0, grid_step=5.0, max_s=400.0)
    assert float(np.min(printed)) < -0.4
    assert float(np.max(np.abs(printed - corrected.values))) > 0.5


def test_printed_form_checks_arguments_too():
    with pytest.raises(ValidationError):
        solve_printed_cdf(ExponentialHeadway(rate=0.2), 0.5, 100.0, 20.0, 200.0)


# ------------------------------------------------------------------ repair

def test_repair_clamps_float_dust():
    vals = np.array([0.1, 0.5, 0.5 - 1e-9, 0.9, 1.0 + 1e-9])
    out = _repair(vals)
    assert out[2] == 0.5
    assert out[4] == 1.0
    assert np.all(np.diff(out) >= 0.0)


def test_repair_raises_on_real_decrease():
    with pytest.raises(NumericError):
        _repair(np.array([0.1, 0.5, 0.4]))
    with pytest.raises(NumericError):
        _repair(np.array([0.1, 1.1]))


def reference_repair(values):
    """One grid point at a time: the loop the vectorised _repair must equal."""
    out = values.copy()
    run_max = 0.0
    for j in range(out.size):
        v = out[j]
        if v > 1.0:
            if v - 1.0 >= MONOTONICITY_TOL:
                raise NumericError(f"solved CDF exceeds 1 by {v - 1.0:.3e} at grid index {j}")
            v = 1.0
        if v < run_max:
            if run_max - v >= MONOTONICITY_TOL:
                raise NumericError(f"solved CDF decreases by {run_max - v:.3e} at grid index {j}")
            v = run_max
        run_max = v
        out[j] = v
    return out


def test_repair_equals_the_loop_on_wobbly_curves():
    rng = np.random.default_rng(3)
    for _ in range(20):
        base = np.concatenate(([-2e-7], np.sort(rng.uniform(0.0, 1.0, 300)), [1.0, 1.0]))
        vals = base + rng.uniform(-4e-7, 4e-7, base.size)
        assert np.array_equal(_repair(vals), reference_repair(vals))


@pytest.mark.parametrize("vals, message", [
    ([0.1, 0.5, 0.5, 0.3, 1.2], "decreases by 2.000e-01 at grid index 3"),
    ([0.1, 1.1, 0.2], "exceeds 1 by 1.000e-01 at grid index 1"),
    ([0.1, 0.5 - 1e-9, 1.0 + 1e-9, 0.99], "decreases by 1.000e-02 at grid index 3"),
    ([-0.5, 0.2], "decreases by 5.000e-01 at grid index 0"),
])
def test_repair_names_the_first_offending_index(vals, message):
    vals = np.array(vals)
    with pytest.raises(NumericError, match=message) as exc:
        _repair(vals)
    assert exc.value.estimate == float(vals[int(message.rsplit(" ", 1)[1])])
    with pytest.raises(NumericError, match=message):
        reference_repair(vals)


# ------------------------------------------ per-step reference march

def _ref_snap(pos):
    i = int(math.floor(pos))
    frac = pos - i
    if frac < 1e-9:
        frac = 0.0
    elif frac > 1.0 - 1e-9:
        i += 1
        frac = 0.0
    return i, frac


def _ref_clamp(val, clamp):
    if clamp and val > 1.0:
        assert val - 1.0 < MONOTONICITY_TOL
        return 1.0
    return val


def reference_march_atomic(headway, coef, const, n, step, upper, clamp=False):
    """F_j = const(j) + coef * sum_h w_h F(s_j - h) over atoms h <= min(s_j, upper),
    one grid point at a time, interpolating F between grid points."""
    values, weights = headway.atoms()
    F = np.zeros(n)
    F[0] = const(0)
    for j in range(1, n):
        s = j * step
        lim = min(s, upper)
        acc = 0.0
        selfw = 0.0
        for h, w in zip(values, weights):
            if h > lim + 1e-12 * max(1.0, h):
                continue
            i0, frac = _ref_snap((s - h) / step)
            if i0 >= j:
                selfw += w
            elif frac == 0.0:
                acc += w * F[i0]
            elif i0 + 1 == j:
                acc += w * (1.0 - frac) * F[i0]
                selfw += w * frac
            else:
                acc += w * ((1.0 - frac) * F[i0] + frac * F[i0 + 1])
        F[j] = _ref_clamp((const(j) + coef * acc) / (1.0 - coef * selfw), clamp)
    return F


def reference_march_density(headway, coef, const, n, step, upper, clamp=False):
    """Trapezoidal Volterra marching against f_H on [0, min(s, upper)], one
    grid point at a time, with the kernel mass rescaled to F_H(upper)."""
    K, r = _ref_snap(upper / step)
    r *= step
    fvals = np.array([headway.pdf(i * step) for i in range(K + 1)])
    f_up = headway.pdf(upper)
    mass = step * (0.5 * fvals[0] + float(fvals[1:K].sum()) + 0.5 * fvals[K])
    if r > 0.0:
        mass += 0.5 * r * (fvals[K] + f_up)
    scale = headway.cdf(upper) / mass
    fvals = fvals * scale
    f_up *= scale
    denom = 1.0 - coef * step * 0.5 * fvals[0]
    F = np.zeros(n)
    F[0] = const(0)
    for j in range(1, n):
        if j <= K:
            acc = step * (float(np.dot(fvals[1:j], F[j - 1:0:-1])) + 0.5 * fvals[j] * F[0])
        else:
            acc = float(np.dot(fvals[1:K], F[j - 1:j - K:-1])) + 0.5 * fvals[K] * F[j - K]
            acc *= step
            if r > 0.0:
                i0, frac = _ref_snap((j * step - upper) / step)
                tail = F[i0] if frac == 0.0 else (1.0 - frac) * F[i0] + frac * F[i0 + 1]
                acc += 0.5 * r * (fvals[K] * F[j - K] + f_up * tail)
        F[j] = _ref_clamp((const(j) + coef * acc) / denom, clamp)
    return F


def _reference(d, coef, const, n, step, upper, clamp=False):
    march = reference_march_atomic if d.atoms() is not None else reference_march_density
    return march(d, coef, const, n, step, upper, clamp)


ORACLE_FAMILIES = [
    ExponentialHeadway(rate=0.2),
    UniformHeadway(low=2.0, high=20.0),
    LognormalHeadway(log_mean=2.0, log_sd=0.5),
    DeterministicHeadway(spacing=33.3),
    EmpiricalHeadway.from_samples(SIX_GAPS),
]


def _agree(new, ref):
    assert float(np.max(np.abs(new - ref))) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


@pytest.mark.parametrize("d", ORACLE_FAMILIES, ids=repr)
@pytest.mark.parametrize("step, L", [(0.3, 100.0), (0.5, 100.0), (1.0, 100.0), (0.5, 97.3)])
def test_blocked_march_matches_per_step_reference(d, step, L):
    # n spans several solver blocks; step 0.3 and L = 97.3 leave a partial panel
    p_s, max_s = 0.9, 300.0
    n = int(math.floor(max_s / step + 1e-9)) + 1
    g0 = 1.0 - p_s * d.cdf(L)
    ref = _reference(d, p_s, lambda j: g0, n, step, L, clamp=True)
    ref[0] = g0
    _agree(solve_renewal_cdf(d, p_s, L, step, max_s).values, reference_repair(ref))


@pytest.mark.parametrize("d", ORACLE_FAMILIES, ids=repr)
@pytest.mark.parametrize("step, L", [(0.3, 100.0), (1.0, 100.0), (0.5, 97.3)])
def test_blocked_printed_form_matches_per_step_reference(d, step, L):
    p_s, max_s = 0.7, 300.0
    n = int(math.floor(max_s / step + 1e-9)) + 1
    g0 = 1.0 - p_s * d.cdf(L)
    K, _ = _ref_snap(L / step)

    def const(j):
        if j == 0:
            return g0
        if j <= K:
            return g0 - (1.0 + p_s) * d.cdf(j * step)
        return 1.0 - d.cdf(L)

    _agree(solve_printed_cdf(d, p_s, L, step, max_s), _reference(d, 1.0, const, n, step, L))


@pytest.mark.parametrize("lags", [4, 300, 1500])
@pytest.mark.parametrize("B", [1, 2, 3, 255, 1000])
def test_newton_series_inverse_matches_the_direct_recurrence(B, lags):
    rng = np.random.default_rng(B + lags)
    a = rng.random(lags + 1)
    a[0] = 0.0
    a *= 0.97 / a.sum()  # sub-stochastic, as every march's lags are
    g = np.zeros(B)
    g[0] = 1.0
    for i in range(1, B):
        t = min(i, lags)
        g[i] = np.dot(a[1:t + 1], g[i - t:i][::-1])
    got = _series_inverse(a, B)
    assert got.shape == (B,)
    assert float(np.max(np.abs(got - g))) <= 1e-13 * max(1.0, float(np.max(np.abs(g))))


# (law, step, L, max_s, blocks the march takes): few lags and many blocks;
# several full blocks and a partial one, with a partial panel at L so that
# the last lag weighs; and K = n - 1 lags in one block
MARCH_REGIMES = {
    "small_K": (DeterministicHeadway(spacing=3.3), 0.5, 100.0, 5000.0, lambda b: b >= 4),
    "full_blocks": (UniformHeadway(low=2.0, high=120.0), 0.06, 97.3, 480.0, lambda b: b >= 3),
    "one_block": (UniformHeadway(low=2.0, high=20.0), 0.5, 300.0, 300.0, lambda b: b == 1),
}


@pytest.mark.parametrize("clamp", [True, False])
@pytest.mark.parametrize("regime", list(MARCH_REGIMES))
def test_march_matches_per_step_reference_in_every_block_regime(monkeypatch, regime, clamp):
    d, step, L, max_s, blocks_ok = MARCH_REGIMES[regime]
    n = int(math.floor(max_s / step + 1e-9)) + 1
    sizes = []

    def recorded(a, B):
        sizes.append(B)
        return _series_inverse(a, B)

    monkeypatch.setattr(quad, "_series_inverse", recorded)
    coef, shape, upper, mass = ContentionModel(0.9, L).hop_kernel(d, step, max_s)
    w, dw = _lag_weights(d, shape, mass, coef, step, upper)
    g0 = 1.0 - 0.9 * d.cdf(L)
    got = _march(w, dw, coef, np.full(n, g0), clamp=clamp)
    assert blocks_ok(math.ceil(n / sizes[0]))
    if regime == "small_K":
        assert w.size <= 9
    if regime == "one_block":
        assert w.size - 1 >= n - 1
    _agree(got, _reference(d, coef, lambda j: g0, n, step, L, clamp))


def test_solvers_evaluate_the_headway_law_in_array_calls(monkeypatch):
    calls = {"pdf": 0, "cdf": 0}
    for name in calls:
        real = getattr(LognormalHeadway, name)

        def counted(self, x, real=real, name=name):
            calls[name] += 1
            return real(self, x)

        monkeypatch.setattr(LognormalHeadway, name, counted)
    d = LognormalHeadway(log_mean=2.0, log_sd=0.5)
    solve_renewal_cdf(d, 0.9, 100.0, 0.01, 300.0)   # 10 001 kernel lags
    solve_printed_cdf(d, 0.9, 100.0, 0.01, 300.0)
    # per solve: the lags and the partial-panel end point; q and the kernel
    # mass at L; and the printed constant in one array call
    assert calls == {"pdf": 4, "cdf": 5}


def test_small_empirical_data_set_is_solved_against_its_atoms():
    # the six-gap law is atomic; a histogram density estimate of it misses
    # the simulated ECDF by ~0.02
    d = EmpiricalHeadway.from_samples(SIX_GAPS)
    model = ContentionModel(p_s=0.9, max_range=100.0)
    sim = run(SimConfig(d, model, trials=400_000, seed=11, ecdf_grid=(0.5, 300.0)))
    curve = solve_renewal_cdf(d, 0.9, 100.0, 0.5, 300.0)
    assert float(np.max(np.abs(curve.values - sim.ecdf.values))) < 0.01


@pytest.mark.parametrize("d", ORACLE_FAMILIES[:3] + [
    DeterministicHeadway(spacing=10.0), EmpiricalHeadway.from_samples(SIX_GAPS)], ids=repr)
@pytest.mark.parametrize("alpha", [1.0, 3.0, 6.0])
def test_fading_cdf_matches_the_simulated_ecdf(d, alpha):
    # the same solver as contention, fed the fading kernel f_H(t) p(t) on [0, max_s]
    f = fading(alpha)
    sim = run(SimConfig(d, f, trials=100_000, seed=7, ecdf_grid=(0.5, 400.0)))
    curve = cdf(d, f, 0.5, 400.0)
    assert float(np.max(np.abs(curve.values - sim.ecdf.values))) < 0.01
