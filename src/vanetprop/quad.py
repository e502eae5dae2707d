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
(`analytic._expect` integrates a headway's infinite support in units of
its mean, tau = lo + s x), and integrates a finite support as it stands.
A sweep's points share one level instead of paying numpy's fixed
overhead per point: `analytic` integrates their mapped stack with
max_panels = 32, which holds the run to its first level, and keeps each
point whose components pass the stop rule (`_passes`) on the level-1
sums, the same floats `integrate_semi_infinite` returns for it alone.
The integrand is evaluated with numpy's floating-point warnings off: a
non-finite value raises NumericError anyway, and a power that overflows
to inf, so that p = exp(-inf) is exactly 0, is no fault.

The CDF solver lives in `analytic`; `_march` solves its renewal equation
on a uniform grid as a causal convolution with the lag weights of the hop
kernel f_H p = p(0) f_H shape, by product integration (Linz, Analytical
and Numerical Methods for Volterra Equations, SIAM 1985): F_D is linear
between grid points, and the kernel a discrete measure (atoms, or a Gauss
rule per grid cell of a density). Blocks of B grid points are solved
together, after Hairer, Lubich & Schlichte (SIAM J. Sci. Stat. Comput.
6(3), 1985): a block's history is one FFT convolution with the solved
prefix, and the block itself one causal FFT convolution with the inverse
of its lower-triangular Toeplitz matrix, the series 1 / (1 - a(z)) found
by Newton doubling. B grows with the K lags (B > K), so n points cost
O(n log n) at most, not the O(n K) of a point-by-point march.
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

# 3-point Gauss-Legendre rule on [0, 1], one per grid cell of a density's hop kernel
_GAUSS_X = 0.5 + 0.5 * math.sqrt(0.6) * np.array([-1.0, 0.0, 1.0])
_GAUSS_W = np.array([5.0, 8.0, 5.0]) / 18.0


@dataclass(frozen=True)
class QuadResult:
    """value and abs_error_estimate are floats for one integrand, (m,) arrays
    for a stack of m; evaluations counts integrand nodes."""

    value: float | np.ndarray
    abs_error_estimate: float | np.ndarray
    evaluations: int


def _values(f, x: np.ndarray) -> np.ndarray:
    """f at the nodes x: shape x.shape, or (m,) + x.shape for a stack; all finite."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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


def _passes(value, err, rel_tol: float):
    """The stop rule: whether each component's summed error err is at most its
    tolerance max(rel_tol * |value|, ABS_FLOOR), and that tolerance."""
    tol = np.maximum(rel_tol * np.abs(value), ABS_FLOOR)
    return err <= tol, tol


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

    edges = np.linspace(a, b, min(_START_PANELS, max_panels) + 1)
    lo, hi = edges[:-1], edges[1:]
    val, err = _level(f, lo, hi)
    evals = 15 * lo.size
    while True:
        total, total_err = val.sum(axis=-1), err.sum(axis=-1)
        done, tol = _passes(total, total_err, rel_tol)
        if done.all():
            return QuadResult(_scalar(total), _scalar(total_err), evals)
        # the shares sum to tol, so some panel exceeds its share
        over = err > (tol / lo.size)[..., None]
        split = over.reshape(-1, lo.size).any(axis=0)
        slo, shi = lo[split], hi[split]
        mid = 0.5 * (slo + shi)
        stalled = np.any((mid <= slo) | (mid >= shi))
        if stalled or lo.size + slo.size > max_panels:
            why = ("stalled on an unsplittable panel" if stalled
                   else f"did not converge within {max_panels} panels")
            # as floats: numpy's repr of a sweep's stack took ms, and the sweep drops it
            raise NumericError(f"quadrature {why} (value ~ {total.tolist()!r}, error ~ "
                               f"{total_err.tolist()!r})", estimate=_scalar(total),
                               error_estimate=_scalar(total_err))
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
    return integrate(_mapped(f, a), 0.0, 1.0, rel_tol=rel_tol)


def _mapped(f: Callable[[np.ndarray], np.ndarray], a: float):
    """The integral of f over [a, inf) as one of t in [0, 1), by tau = a + t/(1-t):
    f(tau) / (1-t)^2, for one integrand or a stack."""
    def g(t):
        omt = 1.0 - t
        # a node rounded onto t = 1 maps to tau = a with weight 1/inf^2 = 0
        omt[omt <= 0.0] = np.inf
        y = np.asarray(f(a + t / omt), dtype=float) / omt
        y /= omt  # in place: a sweep chunk's stack is a level's largest array
        return y

    return g


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
    """Clamp float-level monotonicity wobble; a real decrease is a failure. The
    bound of 1 is `_march(..., clamp=True)`'s, which refuses values past it."""
    # running maximum before each index, starting from 0
    run = np.maximum.accumulate(np.concatenate(([0.0], values)))
    bad = np.flatnonzero(run[:-1] - values >= MONOTONICITY_TOL)
    if bad.size:
        j = int(bad[0])
        v = float(values[j])
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
    """Lag weights w of the hop kernel coef * shape * H's law on [0, upper], and row
    corrections dw; mass() is E[shape(H); H <= upper]. The kernel is a measure: an
    atomic law's atoms, or a density's 3-point Gauss rule on each grid cell cut at
    the support's edges and at upper, scaled to mass() (refused where the cells'
    midpoint sum is off it by over a factor 2). A node h = (m + phi) * step puts
    (1 - phi) of its weight times shape(h) on lag m and phi on lag m + 1; row m
    drops the lag-m share (dw) where phi > 0, as h > s_m. Row j weighs F_0 by
    w[j] + dw[j].
    """
    at = headway.atoms()
    if at is None:
        lo, hi = (min(edge, upper) for edge in headway.support())  # past upper: no cell
        grid = np.arange(math.floor(lo / step), math.ceil(hi / step) + 1) * step
        edges = np.concatenate(([lo], grid[(lo < grid) & (grid < hi)], [hi]))
        width = np.diff(edges)[:, None]
        nodes = (edges[:-1, None] + width * _GAUSS_X).ravel()
        wt = (width * _GAUSS_W).ravel() * headway.pdf(nodes) * shape(nodes)
        # refuse on the midpoint sum, which errs at second order as the curve does: the
        # Gauss total reads 1.07 of the mass at exponential(10), ds 1, with the curve 0.15
        # off. Below the quadrature's floor, which bounds `exact`'s error, any ratio goes
        total, mid, exact = float(wt.sum()), 2.25 * float(wt[1::3].sum()), mass()
        if not 0.5 * mid <= exact <= 2.0 * mid and coef * max(mid, exact) > ABS_FLOOR:
            raise NumericError(
                f"kernel mass {mid!r} vs its integral {exact!r} on [0, {upper!r}]: "
                "grid_step too coarse to resolve the hop kernel")
        wt *= exact / total if total > 0.0 and exact > 0.0 else 1.0
    else:
        values, weights = at
        keep = values <= upper + 1e-12 * np.maximum(1.0, values)
        nodes, wt = values[keep], weights[keep] * shape(values[keep])
    m, phi = _snap_index(nodes / step)
    # in input order, as repeated adds would: lag-m shares, then lag-(m+1) ones
    w = np.bincount(np.concatenate((m, m + 1)),
                    np.concatenate(((1.0 - phi) * wt, phi * wt)), minlength=2)
    dw = np.bincount(m, np.where(phi > 0.0, (phi - 1.0) * wt, 0.0), minlength=w.size)
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
