"""Headway (inter-vehicle gap) distributions.

Distances are meters throughout. A headway distribution is supported on
[0, inf) with finite mean and variance; the analytical layer only ever
touches it through pdf/cdf, truncated moments and sampling, so adding a
family means implementing this interface and nothing else.

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
    return 0.5 * (1.0 + math.erf(z / _SQRT2))


def _check_order(order: int) -> None:
    if order not in (1, 2):
        raise UnsupportedOrderError(f"truncated moment order must be 1 or 2, got {order!r}")


def _check_upper(upper: float) -> None:
    if not (isinstance(upper, (int, float)) and math.isfinite(upper)) or upper < 0:
        raise ValidationError(f"truncation point must be finite and >= 0, got {upper!r}")


class HeadwayDistribution(ABC):
    """Interface every headway family implements."""

    @abstractmethod
    def pdf(self, x: float) -> float:
        """Density f_H(x); 0 outside the support."""

    @abstractmethod
    def cdf(self, x: float) -> float:
        """F_H(x) = P(H <= x), right-continuous."""

    @abstractmethod
    def mean(self) -> float:
        ...

    @abstractmethod
    def variance(self) -> float:
        ...

    @abstractmethod
    def sample(self, rng: np.random.Generator, size: int | None = None):
        """One draw (size=None) or an ndarray of draws from H."""

    # Purely atomic families (point mass, resampled data) expose their measure
    # directly so integrals against H can be evaluated as exact sums.
    def atoms(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(values, weights) when H is purely atomic, else None."""
        return None

    # False for a point mass, which has no pointwise density. The CDF solver
    # goes by atoms() instead, so resampled data is never convolved against
    # its histogram estimate.
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

    def pdf(self, x: float) -> float:
        if x < 0:
            raise ValidationError(f"density argument must be >= 0, got {x!r}")
        return self.rate * math.exp(-self.rate * x)

    def cdf(self, x: float) -> float:
        if x < 0:
            return 0.0
        # -expm1 keeps full precision where 1 - exp(-rate*x) would round to 1
        return -math.expm1(-self.rate * x)

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
        out = rng.exponential(scale=1.0 / self.rate, size=size)
        return float(out) if size is None else out


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

    def pdf(self, x: float) -> float:
        if x < 0:
            raise ValidationError(f"density argument must be >= 0, got {x!r}")
        if self.low <= x <= self.high:
            return 1.0 / (self.high - self.low)
        return 0.0

    def cdf(self, x: float) -> float:
        if x < self.low:
            return 0.0
        if x >= self.high:
            return 1.0
        return (x - self.low) / (self.high - self.low)

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def variance(self) -> float:
        return (self.high - self.low) ** 2 / 12.0

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

    def pdf(self, x: float) -> float:
        if x < 0:
            raise ValidationError(f"density argument must be >= 0, got {x!r}")
        if x == 0:
            return 0.0
        z = (math.log(x) - self.log_mean) / self.log_sd
        return math.exp(-0.5 * z * z) / (x * self.log_sd * math.sqrt(2.0 * math.pi))

    def cdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        return _norm_cdf((math.log(x) - self.log_mean) / self.log_sd)

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
        out = rng.lognormal(self.log_mean, self.log_sd, size=size)
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

    def pdf(self, x: float) -> float:
        if x < 0:
            raise ValidationError(f"density argument must be >= 0, got {x!r}")
        # no density exists; the atom is reported as an infinite spike
        return math.inf if x == self.spacing else 0.0

    def cdf(self, x: float) -> float:
        return 1.0 if x >= self.spacing else 0.0

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

    cdf is the ECDF and sampling draws with replacement, both exact.
    A pointwise density exists only as an estimate; the Freedman-Diaconis
    histogram is used because it is deterministic, documented and testable.
    No solver consumes it: the CDF solver and the fading integrals use the
    atoms.
    """

    samples: np.ndarray

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
        edges = np.histogram_bin_edges(data, bins="fd")
        counts, _ = np.histogram(data, bins=edges)
        widths = np.diff(edges)
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_density", counts / (data.size * widths))

    @classmethod
    def from_samples(cls, data) -> "EmpiricalHeadway":
        return cls(np.asarray(data, dtype=float))

    def pdf(self, x: float) -> float:
        if x < 0:
            raise ValidationError(f"density argument must be >= 0, got {x!r}")
        edges = self._edges
        if x < edges[0] or x > edges[-1]:
            return 0.0
        i = int(np.searchsorted(edges, x, side="right")) - 1
        i = min(i, len(self._density) - 1)  # x at the last edge belongs to the last bin
        return float(self._density[i])

    def cdf(self, x: float) -> float:
        return float(np.searchsorted(self.samples, x, side="right")) / self.samples.size

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
