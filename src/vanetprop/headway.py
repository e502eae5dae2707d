"""Headway (inter-vehicle gap) distributions.

Distances are meters throughout. A headway distribution is supported on
[0, inf) with finite mean and variance; the analytical layer only ever
touches it through pdf/cdf, its support, truncated moments and sampling,
so adding a family means implementing this interface and nothing else.

Instances are frozen dataclasses: immutable after construction, so the
simulator's forked worker processes see exactly the parent's instances.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedOrderError, ValidationError

__all__ = [
    "HeadwayDistribution",
    "ExponentialHeadway",
    "UniformHeadway",
    "LognormalHeadway",
    "DeterministicHeadway",
    "EmpiricalHeadway",
    "load_headway_file",
]

_SQRT2 = math.sqrt(2.0)


def _norm_cdf(z: float) -> float:
    # erfc keeps relative precision in the lower tail, where 1 + erf(x) cancels
    return 0.5 * math.erfc(-z / _SQRT2)


def _args(x) -> np.ndarray:
    """x as a float array: pdf and cdf take a scalar or an ndarray of any shape."""
    return np.asarray(x, dtype=float)


def _like(y: np.ndarray):
    """A result shaped like the argument: a float for a scalar argument."""
    return float(y) if y.ndim == 0 else y


def _density_args(x) -> np.ndarray:
    x = _args(x)
    if (x < 0).any():
        raise ValidationError(
            f"density argument must be >= 0, got {float(x[x < 0].flat[0])!r}")
    return x


def _check_order(order: int) -> None:
    if order not in (1, 2):
        raise UnsupportedOrderError(f"truncated moment order must be 1 or 2, got {order!r}")


def _check_upper(upper: float) -> None:
    if not (isinstance(upper, (int, float)) and math.isfinite(upper)) or upper < 0:
        raise ValidationError(f"truncation point must be finite and >= 0, got {upper!r}")


class HeadwayDistribution(ABC):
    """Interface every headway family implements."""

    @abstractmethod
    def pdf(self, x):
        """Density f_H(x) for x >= 0, elementwise over an ndarray x (a float for a
        scalar x); 0 outside the support. Atomic laws have none and raise."""

    @abstractmethod
    def cdf(self, x):
        """F_H(x) = P(H <= x), right-continuous; elementwise over an ndarray x,
        a float for a scalar x."""

    @abstractmethod
    def mean(self) -> float:
        ...

    @abstractmethod
    def variance(self) -> float:
        ...

    @abstractmethod
    def sample(self, rng: np.random.Generator, size: int | None = None):
        """One draw (size=None) or an ndarray of draws from H.

        The ndarray is fresh, sharing no memory with the distribution, so
        the caller may overwrite it (the simulator does)."""

    # Purely atomic families (point mass, resampled data) expose their measure
    # directly so integrals against H can be evaluated as exact sums.
    def atoms(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(values, weights) when H is purely atomic, else None."""
        return None

    def support(self) -> tuple[float, float]:
        """(lo, hi): the density vanishes outside [lo, hi]; hi may be inf."""
        return 0.0, math.inf

    # False for atomic laws, whose pdf raises; only bench/tracer.py reads it
    has_density: bool = True

    def truncated_moment(self, order: int, upper: float) -> float:
        """integral_0^upper tau^order f_H(tau) dtau for order in {1, 2}.

        Families with a closed form override this; the fallback integrates
        the density adaptively at relative tolerance 1e-10.
        """
        _check_order(order)
        _check_upper(upper)
        from .quad import integrate

        return integrate(lambda t: t ** order * self.pdf(t), 0.0, upper, rel_tol=1e-10).value


@dataclass(frozen=True)
class ExponentialHeadway(HeadwayDistribution):
    """H ~ Exp(rate); free-flowing traffic headways."""

    rate: float

    def __post_init__(self):
        if not (isinstance(self.rate, (int, float)) and math.isfinite(self.rate)) or self.rate <= 0:
            raise ValidationError(f"rate must be finite and > 0, got {self.rate!r}")

    def pdf(self, x):
        return _like(self.rate * np.exp(-self.rate * _density_args(x)))

    def cdf(self, x):
        # -expm1 keeps full precision where 1 - exp(-rate*x) would round to 1
        return _like(-np.expm1(-self.rate * np.maximum(_args(x), 0.0)))

    def mean(self) -> float:
        return 1.0 / self.rate

    def variance(self) -> float:
        return 1.0 / self.rate ** 2

    def truncated_moment(self, order: int, upper: float) -> float:
        """Integration by parts:

        I1(U) = (1 - e^{-rU}(1 + rU)) / r
        I2(U) = (2 - e^{-rU}((rU)^2 + 2rU + 2)) / r^2
        """
        _check_order(order)
        _check_upper(upper)
        x = self.rate * upper
        e = math.exp(-x)
        if order == 1:
            return (1.0 - e * (1.0 + x)) / self.rate
        return (2.0 - e * (x * x + 2.0 * x + 2.0)) / self.rate ** 2

    def sample(self, rng: np.random.Generator, size: int | None = None):
        # the same values as exponential(scale=1/rate), without its broadcasting cost
        return rng.standard_exponential(size) * (1.0 / self.rate)


@dataclass(frozen=True)
class UniformHeadway(HeadwayDistribution):
    """H ~ Uniform(low, high), 0 <= low < high."""

    low: float
    high: float

    def __post_init__(self):
        ok = (
            isinstance(self.low, (int, float))
            and isinstance(self.high, (int, float))
            and math.isfinite(self.low)
            and math.isfinite(self.high)
        )
        if not ok or self.low < 0 or self.low >= self.high:
            raise ValidationError(
                f"need 0 <= low < high, got low={self.low!r} high={self.high!r}"
            )

    def pdf(self, x):
        x = _density_args(x)
        return _like(np.where((self.low <= x) & (x <= self.high),
                              1.0 / (self.high - self.low), 0.0))

    def cdf(self, x):
        x = _args(x)
        return _like(np.minimum(np.maximum((x - self.low) / (self.high - self.low), 0.0), 1.0))

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def variance(self) -> float:
        return (self.high - self.low) ** 2 / 12.0

    def support(self) -> tuple[float, float]:
        return self.low, self.high

    def truncated_moment(self, order: int, upper: float) -> float:
        _check_order(order)
        _check_upper(upper)
        m = min(upper, self.high)
        if m <= self.low:
            return 0.0
        k = order + 1
        return (m ** k - self.low ** k) / (k * (self.high - self.low))

    def sample(self, rng: np.random.Generator, size: int | None = None):
        out = rng.uniform(self.low, self.high, size=size)
        return float(out) if size is None else out


@dataclass(frozen=True)
class LognormalHeadway(HeadwayDistribution):
    """ln H ~ Normal(log_mean, log_sd^2); congested-traffic headways."""

    log_mean: float
    log_sd: float

    def __post_init__(self):
        ok = (
            isinstance(self.log_mean, (int, float))
            and isinstance(self.log_sd, (int, float))
            and math.isfinite(self.log_mean)
            and math.isfinite(self.log_sd)
        )
        if not ok or self.log_sd <= 0:
            raise ValidationError(
                f"need finite log_mean and log_sd > 0, got {self.log_mean!r}, {self.log_sd!r}"
            )

    def pdf(self, x):
        x = _density_args(x)
        pos = x > 0
        safe = np.where(pos, x, 1.0)  # the density is 0 at x = 0; log(0) would warn
        z = (np.log(safe) - self.log_mean) / self.log_sd
        f = np.exp(-0.5 * z * z) / (safe * self.log_sd * math.sqrt(2.0 * math.pi))
        return _like(np.where(pos, f, 0.0))

    def cdf(self, x):
        x = _args(x)
        m, s = self.log_mean, self.log_sd
        # numpy has no erfc; math.erfc per element keeps the lower tail exact
        F = [_norm_cdf((math.log(v) - m) / s) if v > 0 else 0.0 for v in x.ravel().tolist()]
        return _like(np.array(F).reshape(x.shape))

    def mean(self) -> float:
        return math.exp(self.log_mean + 0.5 * self.log_sd ** 2)

    def variance(self) -> float:
        s2 = self.log_sd ** 2
        return math.expm1(s2) * math.exp(2.0 * self.log_mean + s2)

    def truncated_moment(self, order: int, upper: float) -> float:
        """Truncated-lognormal identity:

        integral_0^U x^k f(x) dx
            = exp(k*m + k^2 s^2 / 2) * Phi((ln U - m - k s^2) / s)
        """
        _check_order(order)
        _check_upper(upper)
        if upper == 0:
            return 0.0
        k = float(order)
        m, s = self.log_mean, self.log_sd
        full = math.exp(k * m + 0.5 * (k * s) ** 2)
        return full * _norm_cdf((math.log(upper) - m - k * s * s) / s)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        # exp of the normal stream: numpy's vectorised exp is faster than the
        # per-draw exp inside rng.lognormal (a draw may differ by an ulp)
        out = np.exp(rng.normal(self.log_mean, self.log_sd, size=size))
        return float(out) if size is None else out


@dataclass(frozen=True)
class DeterministicHeadway(HeadwayDistribution):
    """Point mass at `spacing` (platoon with fixed gaps). spacing = 0 is allowed."""

    spacing: float
    has_density = False

    def __post_init__(self):
        if not (isinstance(self.spacing, (int, float)) and math.isfinite(self.spacing)) \
                or self.spacing < 0:
            raise ValidationError(f"spacing must be finite and >= 0, got {self.spacing!r}")

    def pdf(self, x):
        raise ValidationError("a point mass has no density; use atoms()")

    def cdf(self, x):
        return _like(np.where(_args(x) >= self.spacing, 1.0, 0.0))

    def mean(self) -> float:
        return self.spacing

    def variance(self) -> float:
        return 0.0

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array([self.spacing]), np.array([1.0])

    def truncated_moment(self, order: int, upper: float) -> float:
        _check_order(order)
        _check_upper(upper)
        return self.spacing ** order if self.spacing <= upper else 0.0

    def sample(self, rng: np.random.Generator, size: int | None = None):
        if size is None:
            return self.spacing
        return np.full(size, self.spacing)


@dataclass(frozen=True, eq=False, repr=False)
class EmpiricalHeadway(HeadwayDistribution):
    """Resampling law of an observed headway data set.

    cdf is the ECDF and sampling draws with replacement, both exact. The
    law is atomic: the CDF solver and the fading integrals use atoms().
    """

    samples: np.ndarray
    has_density = False

    def __post_init__(self):
        data = np.asarray(self.samples, dtype=float)
        if data.ndim != 1 or data.size < 2:
            raise ValidationError(
                f"need at least 2 headway observations in a flat array, got shape {data.shape}"
            )
        bad = np.flatnonzero(~np.isfinite(data) | (data < 0))
        if bad.size:
            shown = ", ".join(f"row {i}: {data[i]!r}" for i in bad[:10])
            raise ValidationError(f"negative or non-finite headway entries ({shown})")
        data = np.sort(data)
        object.__setattr__(self, "samples", data)
        # prefix sums make truncated moments O(log n)
        object.__setattr__(self, "_csum1", np.cumsum(data))
        object.__setattr__(self, "_csum2", np.cumsum(data * data))

    @classmethod
    def from_samples(cls, data) -> "EmpiricalHeadway":
        return cls(np.asarray(data, dtype=float))

    def pdf(self, x):
        raise ValidationError("resampled data has no density; use atoms()")

    def cdf(self, x):
        return _like(np.searchsorted(self.samples, _args(x), side="right")
                     / self.samples.size)

    def mean(self) -> float:
        return float(np.mean(self.samples))

    def variance(self) -> float:
        return float(np.var(self.samples))

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        values, counts = np.unique(self.samples, return_counts=True)
        return values, counts / self.samples.size

    def truncated_moment(self, order: int, upper: float) -> float:
        """Exact summation over the data: mean of x^order over x <= upper."""
        _check_order(order)
        _check_upper(upper)
        k = int(np.searchsorted(self.samples, upper, side="right"))
        if k == 0:
            return 0.0
        csum = self._csum1 if order == 1 else self._csum2
        return float(csum[k - 1]) / self.samples.size

    def sample(self, rng: np.random.Generator, size: int | None = None):
        if size is None:
            return float(self.samples[rng.integers(0, self.samples.size)])
        return self.samples[rng.integers(0, self.samples.size, size=size)]

    def __repr__(self) -> str:
        return f"EmpiricalHeadway(n={self.samples.size})"


def load_headway_file(path) -> EmpiricalHeadway:
    """Read a plain-text headway file: one nonnegative decimal value per line.

    Blank lines and lines starting with '#' are ignored; the decimal
    separator is '.'. Malformed or negative lines raise ValidationError
    naming the line numbers.
    """
    values: list[float] = []
    bad: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                v = float(line)
            except ValueError:
                bad.append(f"line {lineno}: {line!r}")
                continue
            if not math.isfinite(v) or v < 0:
                bad.append(f"line {lineno}: {line!r}")
                continue
            values.append(v)
    if bad:
        shown = "; ".join(bad[:10])
        raise ValidationError(f"{path}: unreadable or negative headway lines ({shown})")
    if len(values) < 2:
        raise ValidationError(f"{path}: need at least 2 headway values, found {len(values)}")
    return EmpiricalHeadway.from_samples(values)
