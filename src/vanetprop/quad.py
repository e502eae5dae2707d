"""Adaptive quadrature and the convolution march under the CDF solvers.

The integrator is a Gauss 7 / Kronrod 15 panel rule refined level by
level: the Kronrod value is the estimate and |K15 - G7| the panel error.
The integrand maps a 1-D array of nodes to values, or to an (m, nodes)
stack of m integrands, and each level evaluates every panel still being
refined in one call. Component c stops once its summed error is at most
max(rel_tol * |value_c|, 1e-14); until then, every panel whose error in
any component exceeds an equal share, tolerance / panels, is bisected.
(Shares by width would starve the tiny panels near t = 1 of a mapped
heavy tail, whose rounding noise then never meets its share.) Starting
from 32 equal panels saves the levels whose fixed numpy overhead would
dominate. Semi-infinite integrals are mapped to [0, 1)
with tau = a + t/(1-t), whose unit scale puts the nodes' weight near
tau ~ 1; a caller whose integrand has its own scale s rescales first
(`fading._expect` integrates a headway's infinite support in units of
its mean, tau = lo + s x), and integrates a finite support as it stands.
`first_level_semi_infinite` evaluates the first level of many such
integrals at once, with the same map, nodes, sums and stop rule, and
returns the value of each one that stops there, bit for bit what
`integrate_semi_infinite` returns; a sweep of fading points shares one
level that way instead of paying numpy's fixed overhead per point.

The CDF solver lives in `analytic`; `_march` solves its renewal
equation on a uniform grid as a causal convolution with the lag weights
of the hop kernel f_H p = p(0) f_H shape: trapezoid weights of
f_H * shape (implicit in the tau = 0 endpoint), or two interpolating
lags per atom, weighted by shape(atom), for atomic laws. Blocks of B grid points are
solved together, after Hairer, Lubich & Schlichte (SIAM J. Sci. Stat.
Comput. 6(3), 1985): a block's history is one FFT convolution with the
solved prefix, and the block itself one causal FFT convolution with the
inverse of its lower-triangular Toeplitz matrix, the series 1 / (1 - a(z))
found by Newton doubling. B grows with the K lags (B > K), so n points
cost O(n log n) at most, not the O(n K) of a point-by-point march.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError, ValidationError, _check_real, _is_number

__all__ = [
    "QuadResult",
    "integrate",
    "integrate_semi_infinite",
    "first_level_semi_infinite",
    "CdfCurve",
]

ABS_FLOOR = 1e-14
MAX_PANELS = 2000
# a decreasing step larger than this is a solver failure, smaller ones are clamped
MONOTONICITY_TOL = 1e-6
# smallest history FFT size of the CDF march, so that a kernel of few lags
# is not solved in many tiny blocks
_MIN_FFT = 2048

# equal panels the integrator starts from: one level costs numpy's fixed
# overhead (~50 us) whatever its size, so a wider first level saves levels
_START_PANELS = 32

# Kronrod 15 abscissae (positive half) and weights, and the weights of the
# embedded Gauss 7 rule (odd indices and the centre; 0 elsewhere). Standard
# values, e.g. QUADPACK dqk15.
_XK = np.array([
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
])
_WK = np.array([
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
])
_WG = np.array([
    0.0,
    0.129484966168870,
    0.0,
    0.279705391489277,
    0.0,
    0.381830050505119,
    0.0,
    0.417959183673469,
])
# the 15 nodes on [-1, 1] in ascending order are -x_0..-x_6, 0, x_6..x_0;
# as columns, so that row k of a level's nodes holds node k of every panel
_HALF = [*range(7), *range(7, -1, -1)]
_NODES = (np.where(np.arange(15) < 7, -1.0, 1.0) * _XK[_HALF])[:, None]
_KRONROD = _WK[_HALF, None]
_ERROR = (_WK - _WG)[_HALF, None]  # K15 - G7


@dataclass(frozen=True)
class QuadResult:
    """value and abs_error_estimate are floats for one integrand, (m,) arrays
    for a stack of m; evaluations counts integrand nodes."""

    value: float | np.ndarray
    abs_error_estimate: float | np.ndarray
    evaluations: int


def _values(f, x: np.ndarray) -> np.ndarray:
    """f at the nodes x: shape x.shape, or (m,) + x.shape for a stack; all finite."""
    y = np.asarray(f(x), dtype=float)
    if y.ndim == 0:
        y = np.full(x.shape, y)
    finite = np.isfinite(y)
    if not finite.all():
        at = x[~finite.reshape(-1, x.size).all(axis=0)].min()
        raise NumericError(f"integrand returned non-finite value at x={float(at)!r}")
    return y


def _level(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod values and |K15 - G7| of f on the panels [lo, hi], from one call of f;
    shape (panels,), or (m, panels) for a stack."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    y = _values(f, (c + h * _NODES).ravel())
    y = y.reshape(y.shape[:-1] + (15, lo.size))
    # weighted sums down the node axis, not a matmul: that would be the first
    # BLAS call of an analyze run, and BLAS touches ~0.4 MiB of work buffer
    return (y * _KRONROD).sum(axis=-2) * h, np.abs((y * _ERROR).sum(axis=-2)) * h


def _first_panels(a: float, b: float, max_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """The lower and upper edges of the equal panels a quadrature of [a, b] starts from."""
    edges = np.linspace(a, b, min(_START_PANELS, max_panels) + 1)
    return edges[:-1], edges[1:]


def _totals(val: np.ndarray, err: np.ndarray, rel_tol: float):
    """(value, error, tolerance) of each component from its panels' values and
    errors (the last axis); the tolerance is max(rel_tol * |value|, ABS_FLOOR)."""
    total = val.sum(axis=-1)
    return total, err.sum(axis=-1), np.maximum(rel_tol * np.abs(total), ABS_FLOOR)


def _scalar(v: np.ndarray):
    """A float for one integrand, the (m,) array for a stack."""
    return float(v) if v.ndim == 0 else v


def integrate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
              rel_tol: float = 1e-10, max_panels: int = MAX_PANELS) -> QuadResult:
    """Integrate f over [a, b], level by level.

    f maps a 1-D array of nodes to their values, or to an (m, nodes) stack
    of m integrands. Each level evaluates every panel still being refined
    in one call of f. Component c stops once its summed error is at most
    max(rel_tol * |value_c|, ABS_FLOOR); a panel is bisected while any
    component's error exceeds its equal share of that tolerance.
    Raises NumericError (carrying the best estimate) if that needs more
    than max_panels panels.
    """
    _check_real("a", a)
    _check_real("b", b, a)
    _check_real("rel_tol", rel_tol, 0.0, strict=True)
    if a == b:
        zero = np.zeros(_values(f, np.array([a])).shape[:-1])
        return QuadResult(_scalar(zero), _scalar(zero), 1)

    lo, hi = _first_panels(a, b, max_panels)
    val, err = _level(f, lo, hi)
    evals = 15 * lo.size
    while True:
        total, total_err, tol = _totals(val, err, rel_tol)
        if (total_err <= tol).all():
            return QuadResult(_scalar(total), _scalar(total_err), evals)
        # the shares sum to tol, so some panel exceeds its share
        over = err > (tol / lo.size)[..., None]
        split = over.reshape(-1, lo.size).any(axis=0)
        slo, shi = lo[split], hi[split]
        mid = 0.5 * (slo + shi)
        stalled = np.any((mid <= slo) | (mid >= shi))
        if stalled or lo.size + slo.size > max_panels:
            est, est_err = _scalar(total), _scalar(total_err)
            why = ("stalled on an unsplittable panel" if stalled
                   else f"did not converge within {max_panels} panels")
            raise NumericError(f"quadrature {why} (value ~ {est!r}, error ~ {est_err!r})",
                               estimate=est, error_estimate=est_err)
        new_lo, new_hi = np.concatenate((slo, mid)), np.concatenate((mid, shi))
        new_val, new_err = _level(f, new_lo, new_hi)
        evals += 15 * new_lo.size
        keep = ~split
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        val = np.concatenate((val[..., keep], new_val), axis=-1)
        err = np.concatenate((err[..., keep], new_err), axis=-1)


def integrate_semi_infinite(f: Callable[[np.ndarray], np.ndarray], a: float,
                            rel_tol: float = 1e-10) -> QuadResult:
    """Integrate f over [a, inf) via tau = a + t/(1-t), t in [0, 1), as `integrate` does.

    f must be absolutely integrable; values at huge arguments should
    decay to 0 (all headway densities do).
    """
    _check_real("a", a)
    return integrate(_mapped([f], a), 0.0, 1.0, rel_tol=rel_tol)


def _mapped(fs: list[Callable[[np.ndarray], np.ndarray]], a: float):
    """The integrands of fs over [a, inf) as one integrand of t in [0, 1), by
    tau = a + t/(1-t): their values f(tau) / (1-t)^2, stacked along the first
    axis (one f's values as they are)."""
    def g(t):
        omt = 1.0 - t
        # a node rounded onto t = 1 maps to tau = a with weight 1/inf^2 = 0
        omt[omt <= 0.0] = np.inf
        tau = a + t / omt
        ys = [np.asarray(f(tau), dtype=float) / omt / omt for f in fs]
        return ys[0] if len(ys) == 1 else np.concatenate(ys)

    return g


def first_level_semi_infinite(fs: list[Callable[[np.ndarray], np.ndarray]], a: float,
                              rel_tol: float) -> list[np.ndarray | None]:
    """`integrate_semi_infinite(f, a, rel_tol).value` for each f of fs whose
    quadrature stops on its first level, None for the others; every f is
    evaluated once, on that level's nodes, and the level is summed once.

    Each f maps the nodes to an (m, nodes) stack, with the same m for all.
    The nodes, values and stop test are `integrate`'s, so a value returned
    is the one `integrate_semi_infinite` returns, to the last bit. Raises
    NumericError where any integrand is non-finite, as `integrate` does.
    """
    _check_real("a", a)
    lo, hi = _first_panels(0.0, 1.0, MAX_PANELS)
    val, err = _level(_mapped(fs, a), lo, hi)
    shape = (len(fs), -1, lo.size)
    total, total_err, tol = _totals(val.reshape(shape), err.reshape(shape), rel_tol)
    done = (total_err <= tol).all(axis=-1)
    return [v if ok else None for v, ok in zip(total, done)]


@dataclass(frozen=True)
class CdfCurve:
    """F_D sampled on the uniform grid s_j = j * grid_step, j = 0..len(values)-1."""

    grid_step: float
    max_s: float
    values: np.ndarray

    def grid(self) -> np.ndarray:
        return np.arange(self.values.size) * self.grid_step

    def __repr__(self) -> str:
        return (
            f"CdfCurve(grid_step={self.grid_step}, max_s={self.max_s}, "
            f"n={self.values.size})"
        )


def _grid_points(grid_step: float, max_s: float) -> int:
    """The size of the grid j * grid_step on [0, max_s] that every CDF curve and
    ECDF is sampled on, once grid_step > 0 and max_s is finite and >= grid_step."""
    if not (_is_number(grid_step) and _is_number(max_s) and 0 < grid_step <= max_s < math.inf):
        raise ValidationError("grid_step and max_s must satisfy 0 < grid_step <= max_s with "
                              f"a finite max_s, got grid_step={grid_step!r}, max_s={max_s!r}")
    return int(math.floor(max_s / grid_step + 1e-9)) + 1


def _repair(values: np.ndarray) -> np.ndarray:
    """Clamp float-level monotonicity wobble; a real decrease is a failure."""
    clipped = np.minimum(values, 1.0)
    # running maximum before each index, starting from 0
    run = np.maximum.accumulate(np.concatenate(([0.0], clipped)))
    over = values - 1.0 >= MONOTONICITY_TOL
    drop = run[:-1] - clipped >= MONOTONICITY_TOL
    bad = np.flatnonzero(over | drop)
    if bad.size:
        j = int(bad[0])
        v = float(values[j])
        if over[j]:
            raise NumericError(
                f"solved CDF exceeds 1 by {v - 1.0:.3e} at grid index {j}", estimate=v)
        raise NumericError(
            f"solved CDF decreases by {run[j] - v:.3e} at grid index {j}", estimate=v)
    return run[1:]


def _snap_index(pos):
    """Split pos = i + frac elementwise, snapping float dust at either end."""
    i = np.floor(pos)
    frac = pos - i
    up = frac > 1.0 - 1e-9
    return np.where(up, i + 1.0, i).astype(np.intp), np.where(up | (frac < 1e-9), 0.0, frac)


def _lag_weights(headway, shape, mass, coef: float, step: float, upper: float):
    """Lag weights w of the hop kernel coef * f_H * shape on [0, upper], and row
    corrections dw; mass() is the integral of f_H * shape there. Row j weighs
    F_0 by w[j] + dw[j]; in row 0 that is the kernel's weight on zero gaps. An
    atomic law goes by `_atom_kernel`; for a density, the endpoint tau = s_j is
    halved while s_j <= upper, row 0 weighs F_0 by 0, and the partial panel
    [K*step, upper] interpolates F_D(s - upper) between lags K and K+1.
    """
    if headway.atoms() is not None:
        return _atom_kernel(headway, shape, coef, step, upper)
    K, r = _snap_index(upper / step)
    K, r = int(K), float(r)
    lags = np.arange(K + 1) * step
    fvals = headway.pdf(lags) * shape(lags)
    f_up = headway.pdf(upper) * shape(upper)
    # Normalize the trapezoid mass to the exact one. The marching fixed point
    # is (1-q)/(1 - coef*mass); raw trapezoid weights miss the mass by O(step^2),
    # so the curve would settle slightly off 1. Rescaling keeps the order.
    trap = step * (0.5 * fvals[0] + float(fvals[1:K].sum()) + 0.5 * fvals[K])
    if r > 0.0:
        trap += 0.5 * r * step * (fvals[K] + f_up)
    exact = mass()
    if trap > 0.0 and exact > 0.0:
        scale = exact / trap
        # a kernel too light to move the curve past the quadrature's absolute
        # floor (which also bounds the error of `exact`) can be off by any ratio
        if not 0.5 <= scale <= 2.0 and coef * max(trap, exact) > ABS_FLOOR:
            raise NumericError(
                f"kernel mass {float(trap)!r} vs its integral {float(exact)!r} on [0, {upper!r}]: "
                "grid_step too coarse to resolve the hop kernel"
            )
        fvals = fvals * scale
        f_up *= scale
    if 1.0 - coef * step * 0.5 * fvals[0] < 0.1:
        raise NumericError(
            f"grid_step {step!r} too coarse for density {float(fvals[0])!r} at 0; "
            "implicit step ill-conditioned"
        )
    tail = 0.5 * r * step * (fvals[K] + f_up * (1.0 - r))
    w = np.append(step * fvals, 0.5 * r * r * step * f_up)
    w[[0, K]] *= 0.5
    w[K] += tail
    dw = np.append(-0.5 * w[:K], [-tail, 0.0])
    dw[0] = -w[0]
    return w, dw


def _atom_kernel(headway, shape, coef: float, step: float, upper: float):
    """Lag weights of the atoms h = (m + phi)*step <= upper, weighted by shape(h):
    (1-phi) on lag m and phi on lag m+1, interpolating F_D between grid points.
    Row m drops the lag-m share (dw) where phi > 0, since then h > s_m; so row 0
    keeps only the atom at 0.
    """
    values, weights = headway.atoms()
    keep = values <= upper + 1e-12 * np.maximum(1.0, values)
    m, phi = _snap_index(values[keep] / step)
    wt = weights[keep] * shape(values[keep])
    w = np.zeros(int(m.max(initial=0)) + 2)
    np.add.at(w, m, (1.0 - phi) * wt)
    np.add.at(w, m + 1, phi * wt)
    dw = np.zeros_like(w)
    np.add.at(dw, m, np.where(phi > 0.0, (phi - 1.0) * wt, 0.0))
    return w, dw


def _series_inverse(a: np.ndarray, B: int) -> np.ndarray:
    """The first B terms of 1 / (1 - a(z)), where a[0] = 0, by Newton doubling:
    g <- g - g ((1 - a) g - 1) mod z^(2m) doubles the m correct terms of g at
    the cost of two FFT products of size 2m, O(B log B) in all."""
    from numpy import fft

    one_minus_a = np.zeros(B)
    one_minus_a[:a.size] = -a[:B]
    one_minus_a[0] = 1.0
    g = np.ones(1)
    while g.size < B:
        m, m2 = g.size, min(2 * g.size, B)
        size = 1 << (m2 - 1).bit_length()
        # at size >= m2 the first product wraps only onto its terms below m,
        # which are dropped, and the second does not wrap
        g_hat = fft.rfft(g, size)
        e = fft.irfft(fft.rfft(one_minus_a[:m2], size) * g_hat, size)[m:m2]
        g = np.concatenate((g, -fft.irfft(g_hat * fft.rfft(e, size), size)[:m2 - m]))
    return g


def _march(w, dw, coef: float, const: np.ndarray, clamp: bool = False) -> np.ndarray:
    """Solve F_j = const_j + coef * (sum_i w_i F_{j-i} + dw_j F_0) for j >= 1,
    F_0 = const_0, with the lag weights w of `_lag_weights`; lag 0 is implicit.

    Blocks of B grid points are solved together. With K lags (those past
    n - 1 never act), the history FFT size S is the smallest power of two
    above 2K, at least _MIN_FFT, and B = S - K, so a block's history is one
    size-S FFT convolution of the solved prefix with the lags. The block
    itself is lower-triangular Toeplitz; its inverse applies as one causal
    FFT convolution with the first B terms of 1 / (1 - a(z)). A kernel with
    K = n - 1 lags (fading) is solved as one block. With clamp, each block
    is projected onto F <= 1 (true CDFs obey it, so the projection only
    removes discretization overshoot and projected values no longer feed
    error back into later convolutions); a real excursion past 1 raises, and
    so does a singular step, where coef * w[0] reaches 1 (an atom on lag 0).
    """
    from numpy import fft  # loaded on the first solve, not at import

    n = const.size
    k = min(w.size, n) - 1
    denom = 1.0 - coef * w[0]
    if denom <= 1e-12:
        raise NumericError(f"implicit lag-0 weight {float(coef * w[0])!r} leaves "
                           "no equation to solve at grid index 1")
    a = (coef / denom) * w[:k + 1]
    a[0] = 0.0
    rhs = const / denom
    rhs[0] = const[0]
    rhs[1:dw.size] += (coef / denom) * const[0] * dw[1:n]

    size = max(_MIN_FFT, 1 << (2 * k).bit_length())
    B = min(size - k, n)
    g_size = 1 << (2 * B - 2).bit_length()  # g * v to B terms, without wrap
    g_hat = fft.rfft(_series_inverse(a, B), g_size)
    a_hat = fft.rfft(a, size) if B < n else None
    F = np.empty(n)
    for lo in range(0, n, B):
        hi = min(lo + B, n)
        v = rhs[lo:hi]
        if lo > 0:
            start = max(lo - k, 0)
            hist = fft.irfft(fft.rfft(F[start:lo], size) * a_hat, size)
            v = v + hist[lo - start:hi - start]
        blk = fft.irfft(fft.rfft(v, g_size) * g_hat, g_size)[:hi - lo]
        if clamp:
            over = np.flatnonzero(blk - 1.0 >= MONOTONICITY_TOL)
            if over.size:
                x = float(blk[over[0]])
                raise NumericError(f"solved CDF exceeds 1 by {x - 1.0:.3e} at grid index "
                                   f"{lo + int(over[0])}", estimate=x)
            np.minimum(blk, 1.0, out=blk)
        F[lo:hi] = blk
    return F
