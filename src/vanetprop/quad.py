"""Adaptive quadrature and the renewal-equation CDF solver.

The integrator is a Gauss 7 / Kronrod 15 panel rule with worst-panel
bisection: the Kronrod value is the estimate, |K15 - G7| the panel error,
and the panel with the largest error is split until the summed error
drops below max(rel_tol * |value|, 1e-14). Semi-infinite integrals are
mapped to [0, 1) with tau = a + t/(1-t).

The solver marches the corrected renewal identity

    F_D(s) = 1 - p_s F_H(L) + p_s * integral_0^min(s,L) f_H(tau) F_D(s - tau) dtau

on a uniform grid as a causal convolution with fixed lag weights:
trapezoid weights of f_H (implicit in the tau = 0 endpoint), or two
interpolating lags per atom for atomic laws. Blocks of B grid points are
solved together, after Hairer, Lubich & Schlichte (SIAM J. Sci. Stat.
Comput. 6(3), 1985): a block's history is one FFT convolution with the
solved prefix, the block itself the inverse of its lower-triangular
Toeplitz matrix. n points and K lags cost O((n/B) K log K + n B), not
the O(n K) of a point-by-point march. The piecewise form printed in the
source theorem is kept available, unrepaired, for discrepancy reporting
only.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateProcessError, NumericError, ValidationError

__all__ = [
    "QuadResult",
    "integrate",
    "integrate_semi_infinite",
    "CdfCurve",
    "solve_renewal_cdf",
    "solve_printed_cdf",
]

ABS_FLOOR = 1e-14
MAX_PANELS = 2000
# a decreasing step larger than this is a solver failure, smaller ones are clamped
MONOTONICITY_TOL = 1e-6
# grid points the CDF march solves together
_BLOCK = 256

# Kronrod 15 abscissae (positive half) and weights; Gauss 7 is embedded at
# the odd indices. Standard values, e.g. QUADPACK dqk15.
_XK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_WK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_error_estimate: float
    evaluations: int


def _panel(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """Kronrod estimate and |K15 - G7| for one panel."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fk = 0.0
    fg = 0.0
    for i, x in enumerate(_XK):
        if x == 0.0:
            y = f(c)
            if not math.isfinite(y):
                raise NumericError(f"integrand returned non-finite value at x={c!r}")
            fk += _WK[i] * y
            fg += _WG[3] * y
            continue
        y1 = f(c - h * x)
        y2 = f(c + h * x)
        if not (math.isfinite(y1) and math.isfinite(y2)):
            bad = c - h * x if not math.isfinite(y1) else c + h * x
            raise NumericError(f"integrand returned non-finite value at x={bad!r}")
        fk += _WK[i] * (y1 + y2)
        if i % 2 == 1:
            fg += _WG[i // 2] * (y1 + y2)
    return fk * h, abs(fk - fg) * h


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = 1e-10,
    max_panels: int = MAX_PANELS,
) -> QuadResult:
    """Adaptively integrate f over [a, b].

    Raises NumericError (carrying the best estimate) if the tolerance is
    not met within max_panels panels.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValidationError(f"integration bounds must be finite, got [{a!r}, {b!r}]")
    if b < a:
        raise ValidationError(f"need a <= b, got [{a!r}, {b!r}]")
    if not (rel_tol > 0):
        raise ValidationError(f"rel_tol must be > 0, got {rel_tol!r}")
    if a == b:
        y = f(a)
        if not math.isfinite(y):
            raise NumericError(f"integrand returned non-finite value at x={a!r}")
        return QuadResult(0.0, 0.0, 1)

    val, err = _panel(f, a, b)
    evals = 15
    # heap of (-error, tiebreak, a, b, value, error); worst panel on top
    seq = 0
    heap = [(-err, seq, a, b, val, err)]
    total_val, total_err = val, err
    panels = 1
    while total_err > max(rel_tol * abs(total_val), ABS_FLOOR):
        if panels >= max_panels:
            raise NumericError(
                f"quadrature did not converge within {max_panels} panels "
                f"(value ~ {total_val!r}, error ~ {total_err!r})",
                estimate=total_val,
                error_estimate=total_err,
            )
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if mid <= pa or mid >= pb:
            raise NumericError(
                "quadrature stalled on an unsplittable panel "
                f"(value ~ {total_val!r}, error ~ {total_err!r})",
                estimate=total_val,
                error_estimate=total_err,
            )
        lval, lerr = _panel(f, pa, mid)
        rval, rerr = _panel(f, mid, pb)
        evals += 30
        total_val += lval + rval - pval
        total_err += lerr + rerr - perr
        seq += 1
        heapq.heappush(heap, (-lerr, seq, pa, mid, lval, lerr))
        seq += 1
        heapq.heappush(heap, (-rerr, seq, mid, pb, rval, rerr))
        panels += 1
    return QuadResult(total_val, total_err, evals)


def integrate_semi_infinite(
    f: Callable[[float], float],
    a: float,
    rel_tol: float = 1e-10,
    max_panels: int = MAX_PANELS,
) -> QuadResult:
    """Integrate f over [a, inf) via tau = a + t/(1-t), t in [0, 1).

    f must be absolutely integrable; values at huge arguments should
    decay to 0 (all headway densities do).
    """
    if not math.isfinite(a):
        raise ValidationError(f"lower bound must be finite, got {a!r}")

    def g(t: float) -> float:
        omt = 1.0 - t
        if omt <= 0.0:
            return 0.0
        y = f(a + t / omt)
        if y == 0.0:
            return 0.0
        return y / omt / omt

    return integrate(g, 0.0, 1.0, rel_tol=rel_tol, max_panels=max_panels)


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


def _check_solver_args(headway, p_s: float, max_range: float,
                       grid_step: float, max_s: float) -> float:
    if not (isinstance(p_s, (int, float)) and 0.0 <= p_s <= 1.0):
        raise ValidationError(f"p_s must lie in [0, 1], got {p_s!r}")
    if not (isinstance(max_range, (int, float)) and math.isfinite(max_range)) or max_range <= 0:
        raise ValidationError(f"max_range must be finite and > 0, got {max_range!r}")
    if not (0.0 < grid_step <= max_range / 10.0):
        raise ValidationError(
            f"grid_step must satisfy 0 < grid_step <= max_range/10, got {grid_step!r}"
        )
    if not (math.isfinite(max_s) and max_s >= max_range):
        raise ValidationError(f"max_s must be finite and >= max_range, got {max_s!r}")
    q = p_s * headway.cdf(max_range)
    if q >= 1.0:
        raise DegenerateProcessError(
            f"p_s * F_H(L) = {q!r}: propagation never terminates"
        )
    return q


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


def _density_kernel(headway, coef: float, step: float, upper: float):
    """Trapezoid lag weights w of f_H on [0, upper], and row corrections dw.

    Row j weighs F_0 by w[j] + dw[j]: the endpoint tau = s_j is halved
    while s_j <= upper. The partial panel [K*step, upper] interpolates
    F_D(s - upper) between lags K and K+1.
    """
    K, r = _snap_index(upper / step)
    K, r = int(K), float(r)
    fvals = np.array([headway.pdf(i * step) for i in range(K + 1)])
    f_up = headway.pdf(upper)
    # Normalize the discrete kernel mass to F_H(upper). The marching fixed
    # point is (1-q)/(1 - coef*mass); with raw trapezoid weights the mass
    # misses F_H(upper) by O(step^2) and the solved curve settles slightly
    # off 1. Rescaling removes that bias without changing the scheme order.
    mass = step * (0.5 * fvals[0] + float(fvals[1:K].sum()) + 0.5 * fvals[K])
    if r > 0.0:
        mass += 0.5 * r * step * (fvals[K] + f_up)
    target = headway.cdf(upper)
    if mass > 0.0 and target > 0.0:
        scale = target / mass
        if not 0.5 <= scale <= 2.0:
            raise NumericError(
                f"kernel mass {mass!r} vs F_H({upper!r}) = {target!r}: "
                "grid_step too coarse to resolve the headway density"
            )
        fvals = fvals * scale
        f_up *= scale
    if 1.0 - coef * step * 0.5 * fvals[0] < 0.1:
        raise NumericError(
            f"grid_step {step!r} too coarse for density {fvals[0]!r} at 0; implicit step ill-conditioned"
        )
    tail = 0.5 * r * step * (fvals[K] + f_up * (1.0 - r))
    w = np.append(step * fvals, 0.5 * r * r * step * f_up)
    w[[0, K]] *= 0.5
    w[K] += tail
    return w, np.append(-0.5 * w[:K], [-tail, 0.0])


def _atom_kernel(headway, coef: float, step: float, upper: float):
    """Lag weights of the atoms h = (m + phi)*step <= upper: (1-phi) on lag
    m and phi on lag m+1, interpolating F_D between grid points. Row m
    drops the lag-m share (dw) where phi > 0, since then h > s_m.
    """
    values, weights = headway.atoms()
    keep = values <= upper + 1e-12 * np.maximum(1.0, values)
    m, phi = _snap_index(values[keep] / step)
    wt = weights[keep]
    w = np.zeros(int(m.max(initial=0)) + 2)
    np.add.at(w, m, (1.0 - phi) * wt)
    np.add.at(w, m + 1, phi * wt)
    dw = np.zeros_like(w)
    np.add.at(dw, m, np.where(phi > 0.0, (phi - 1.0) * wt, 0.0))
    if 1.0 - coef * w[0] <= 1e-12:
        raise NumericError(
            f"implicit atom weight {coef * w[0]!r} at grid index 1 leaves no equation to solve"
        )
    return w, dw


def _march(headway, coef: float, const: np.ndarray, step: float, upper: float,
           clamp: bool = False) -> np.ndarray:
    """Solve F_j = const_j + coef * (sum_i w_i F_{j-i} + dw_j F_0) for j >= 1,
    F_0 = const_0, with the lag weights of H on [0, upper]; lag 0 is implicit.

    Blocks of _BLOCK grid points are solved together: the history from the
    solved prefix is one FFT convolution, and the block applies the inverse
    of its unit lower-triangular Toeplitz matrix. With clamp, each block is
    projected onto F <= 1 (true CDFs obey it, so the projection only
    removes discretization overshoot and projected values no longer feed
    error back into later convolutions); a real excursion past 1 raises.
    """
    from numpy import fft  # loaded on the first solve, not at import

    # an atomic law is solved against its atoms, never a density estimate
    kernel = _atom_kernel if headway.atoms() is not None else _density_kernel
    w, dw = kernel(headway, coef, step, upper)
    n, k = const.size, w.size - 1
    denom = 1.0 - coef * w[0]
    a = (coef / denom) * w
    a[0] = 0.0
    rhs = const / denom
    rhs[0] = const[0]
    rhs[1:dw.size] += (coef / denom) * const[0] * dw[1:n]

    # first column of the block inverse: 1 / (1 - a(z)) to B terms
    B = min(_BLOCK, n)
    g = np.zeros(B)
    g[0] = 1.0
    for i in range(1, B):
        t = min(i, k)
        g[i] = np.dot(a[1:t + 1], g[i - t:i][::-1])
    lag = np.arange(B)
    inv = np.tril(g[np.subtract.outer(lag, lag)])

    size = 1 << (k + B - 1).bit_length()
    a_hat = fft.rfft(a, size)
    F = np.empty(n)
    for lo in range(0, n, B):
        hi = min(lo + B, n)
        v = rhs[lo:hi]
        if lo > 0:
            start = max(lo - k, 0)
            hist = fft.irfft(fft.rfft(F[start:lo], size) * a_hat, size)
            v = v + hist[lo - start:hi - start]
        blk = inv[:hi - lo, :hi - lo] @ v
        if clamp:
            over = np.flatnonzero(blk - 1.0 >= MONOTONICITY_TOL)
            if over.size:
                x = float(blk[over[0]])
                raise NumericError(f"solved CDF exceeds 1 by {x - 1.0:.3e} at grid index "
                                   f"{lo + int(over[0])}", estimate=x)
            np.minimum(blk, 1.0, out=blk)
        F[lo:hi] = blk
    return F


def solve_renewal_cdf(headway, p_s: float, max_range: float,
                      grid_step: float, max_s: float) -> CdfCurve:
    """Solve the corrected renewal identity for F_D on [0, max_s].

    F_D(0) = 1 - p_s F_H(L) exactly (the no-propagation atom); later grid
    values come from implicit trapezoidal marching, then monotonicity
    repair (decreases below 1e-6 clamp, anything larger raises).
    """
    q = _check_solver_args(headway, p_s, max_range, grid_step, max_s)
    n = int(math.floor(max_s / grid_step + 1e-9)) + 1
    g0 = 1.0 - q
    F = _march(headway, p_s, np.full(n, g0), grid_step, max_range, clamp=True)
    F[0] = g0  # exact by construction, restated for clarity
    return CdfCurve(grid_step, max_s, _repair(F))


def solve_printed_cdf(headway, p_s: float, max_range: float,
                      grid_step: float, max_s: float) -> np.ndarray:
    """Evaluate the piecewise CDF recursion exactly as printed in the source.

    For 0 < s <= L the printed middle case subtracts (1 + p_s) F_H(s) and
    carries no p_s on the integral; for s > L the integral convolves
    against F_D where the derivation calls for the tail of F_D. The output
    is raw and unrepaired (it goes negative and non-monotone for most
    inputs); it exists so the discrepancy against the corrected form can
    be reported, never for downstream use.
    """
    q = _check_solver_args(headway, p_s, max_range, grid_step, max_s)
    n = int(math.floor(max_s / grid_step + 1e-9)) + 1
    K = min(int(_snap_index(max_range / grid_step)[0]), n - 1)
    const = np.full(n, 1.0 - headway.cdf(max_range))
    const[0] = 1.0 - q
    const[1:K + 1] = [1.0 - q - (1.0 + p_s) * headway.cdf(j * grid_step)
                      for j in range(1, K + 1)]
    # same marching kernel as the corrected solver; only the constant term
    # and the missing p_s factor on the integral differ
    return _march(headway, 1.0, const, grid_step, max_range)
