"""Headway (inter-vehicle gap) distributions.

Distances are meters throughout. A headway distribution is supported on
[0, inf) with finite mean and variance; the analytical layer only ever
touches it through pdf/cdf, its support, truncated moments and sampling,
so adding a family means implementing this interface and nothing else.
`truncated_moment` checks its arguments once and calls the family's
`_truncated_moment`; a law is atomic, with no density, when `atoms()`
returns its measure.

Instances are frozen dataclasses whose numeric parameters pass
`errors._check_real` (an int or a float, never a bool). They are
immutable after construction, so the simulator's worker processes, which
get them by the fork or pickled, see exactly the parent's instances.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields

import numpy as np

from .errors import NumericError, UnsupportedOrderError, ValidationError, _check_real

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


# below this z, Phi(z) = 0.5 erfc(-z / sqrt 2) is under ~1e-300 and loses
# digits to subnormal rounding; its log goes by the asymptotic series instead
_LOG_PHI_SERIES_Z = -37.0
# below this x = rate * upper the exponential moments' closed forms cancel
_EXP_SERIES_X = 1.0


def _norm_cdf(z: float) -> float:
    # erfc keeps relative precision in the lower tail, where 1 + erf(x) cancels
    return 0.5 * math.erfc(-z / _SQRT2)


def _log_norm_cdf(z: float) -> float:
    """log Phi(z), also where Phi(z) underflows: there Mills' asymptotic series
    Phi(z) = phi(z) / |z| * (1 - 1/z^2 + 3/z^4 - 15/z^6 + ...), whose terms
    shrink below 1e-17 within a dozen at z < -37."""
    if z > _LOG_PHI_SERIES_Z:
        return math.log(_norm_cdf(z))
    r = 1.0 / (z * z)
    total, term, n = 1.0, 1.0, 1
    while abs(term) > 1e-17:
        term *= -(2 * n - 1) * r
        total += term
        n += 1
    return -0.5 * z * z - math.log(-z) - 0.5 * math.log(2.0 * math.pi) + math.log(total)


def _exp(log_value: float, what: str) -> float:
    """exp(log_value), or NumericError where that overflows a float."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise NumericError(f"{what} = exp({log_value!r}) overflows a float") from None


def _pow(x: float, k: int, what: str) -> float:
    """x ** k, or NumericError where that overflows a float."""
    try:
        return x ** k
    except OverflowError:
        raise NumericError(f"{what}: {x!r} ** {k} overflows a float") from None


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

    @property
    def has_density(self) -> bool:
        """False for atomic laws, whose pdf raises; only bench/tracer.py reads it."""
        return self.atoms() is None

    def truncated_moment(self, order: int, upper: float) -> float:
        """integral_0^upper tau^order f_H(tau) dtau, order in {1, 2}, finite upper >= 0."""
        if order not in (1, 2) or order is True:  # True == 1, but is no order
            raise UnsupportedOrderError(f"truncated moment order must be 1 or 2, got {order!r}")
        _check_real("upper", upper, 0.0)
        return self._truncated_moment(order, upper)

    def _truncated_moment(self, order: int, upper: float) -> float:
        """`truncated_moment` on checked arguments: a closed form in each family,
        else the density integrated adaptively at relative tolerance 1e-10."""
        from .quad import integrate

        return integrate(lambda t: t ** order * self.pdf(t), 0.0, upper, rel_tol=1e-10).value


@dataclass(frozen=True)
class ExponentialHeadway(HeadwayDistribution):
    """H ~ Exp(rate); free-flowing traffic headways."""

    rate: float

    def __post_init__(self):
        _check_real("rate", self.rate, 0.0, strict=True)

    def pdf(self, x):
        with np.errstate(over="ignore"):  # where rate * x is inf, exp(-inf) = 0 is exact
            return _like(self.rate * np.exp(-self.rate * _density_args(x)))

    def cdf(self, x):
        # -expm1 keeps full precision where 1 - exp(-rate*x) would round to 1,
        # and gives the exact 1 where rate * x overflows
        with np.errstate(over="ignore"):
            return _like(-np.expm1(-self.rate * np.maximum(_args(x), 0.0)))

    def mean(self) -> float:
        return 1.0 / self.rate

    def variance(self) -> float:
        r2 = _pow(self.rate, 2, "exponential variance")
        v = 1.0 / r2 if r2 > 0.0 else math.inf
        if v == math.inf:
            raise NumericError(f"variance 1 / rate^2 at rate {self.rate!r} overflows a float")
        return v

    def _truncated_moment(self, order: int, upper: float) -> float:
        """Integration by parts, for x = rU >= 1:

        I1(U) = (1 - e^{-x}(1 + x)) / r
        I2(U) = (2 - e^{-x}(x^2 + 2x + 2)) / r^2

        Below x = 1 those differences cancel (I2 loses all its digits by
        x ~ 1e-6), so I_k(U) = k! P(k+1, x) / r^k goes by the series of the
        regularized lower incomplete gamma, P(a, x) = x^a e^{-x} / Gamma(a+1)
        * sum_n x^n / ((a+1)...(a+n)), written as r U^{k+1} e^{-x} / (k+1) *
        sum_n ..., which never forms r^k.
        """
        x = self.rate * upper
        e = math.exp(-x)
        if x < _EXP_SERIES_X:
            a = order + 1
            total, term, n = 1.0, 1.0, 1
            while term > 1e-17 * total:
                term *= x / (a + n)
                total += term
                n += 1
            try:
                return self.rate * upper ** a * e / a * total
            except OverflowError:  # U^{k+1} leaves the doubles, r U^{k+1} = x U^k may not
                for _ in range(order):  # x U^k a factor at a time, with no lone power
                    x *= upper
                if x == math.inf:
                    raise NumericError(f"exponential truncated moment of order {order}: rate "
                                       f"{self.rate!r} * {upper!r} ** {a} overflows a "
                                       "float") from None
                return x * e / a * total
        if e == 0.0:  # past x ~ 745 each e x^j is 0, where x or x * x may be inf
            x = 0.0
        if order == 1:
            return (1.0 - e * (1.0 + x)) / self.rate
        # the numerator is >= 0.16 at x >= 1, so inf is 2 / rate^2 overflowing
        r2 = _pow(self.rate, 2, "exponential truncated moment of order 2")
        m2 = (2.0 - e * (x * x + 2.0 * x + 2.0)) / r2 if r2 > 0.0 else math.inf
        if m2 == math.inf:
            raise NumericError("exponential truncated moment of order 2: 2 / rate^2 at "
                               f"rate {self.rate!r} overflows a float")
        return m2

    def sample(self, rng: np.random.Generator, size: int | None = None):
        # the same values as exponential(scale=1/rate), without its broadcasting cost
        return rng.standard_exponential(size) * (1.0 / self.rate)


@dataclass(frozen=True)
class UniformHeadway(HeadwayDistribution):
    """H ~ Uniform(low, high), 0 <= low < high."""

    low: float
    high: float

    def __post_init__(self):
        _check_real("low", self.low, 0.0)
        _check_real("high", self.high, self.low, strict=True)

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
        return _pow(self.high - self.low, 2, "uniform variance") / 12.0

    def support(self) -> tuple[float, float]:
        return self.low, self.high

    def _truncated_moment(self, order: int, upper: float) -> float:
        m = min(upper, self.high)
        if m <= self.low:
            return 0.0
        k = order + 1
        # low ** k <= m ** k, so only m ** k can overflow
        m_k = _pow(m, k, "uniform truncated moment")
        return (m_k - self.low ** k) / (k * (self.high - self.low))

    def sample(self, rng: np.random.Generator, size: int | None = None):
        out = rng.uniform(self.low, self.high, size=size)
        return float(out) if size is None else out


@dataclass(frozen=True)
class LognormalHeadway(HeadwayDistribution):
    """ln H ~ Normal(log_mean, log_sd^2); congested-traffic headways."""

    log_mean: float
    log_sd: float

    def __post_init__(self):
        _check_real("log_mean", self.log_mean)
        _check_real("log_sd", self.log_sd, 0.0, strict=True)

    def pdf(self, x):
        x = _density_args(x)
        pos = x > 0
        safe = np.where(pos, x, 1.0)  # the density is 0 at x = 0; log(0) would warn
        z = (np.log(safe) - self.log_mean) / self.log_sd
        f = np.exp(-0.5 * z * z) / (safe * self.log_sd * math.sqrt(2.0 * math.pi))
        return _like(np.where(pos, f, 0.0))

    def _cdf(self, v: float) -> float:
        if not v > 0:
            return 0.0
        return _norm_cdf((math.log(v) - self.log_mean) / self.log_sd)

    def cdf(self, x):
        if isinstance(x, (int, float)):
            return self._cdf(float(x))
        x = _args(x)
        # numpy has no erfc; math.erfc per element keeps the lower tail exact
        F = [self._cdf(v) for v in x.ravel().tolist()]
        return _like(np.array(F).reshape(x.shape))

    def mean(self) -> float:
        return _exp(self.log_mean + 0.5 * self.log_sd ** 2, "lognormal mean")

    def variance(self) -> float:
        s2 = self.log_sd ** 2
        try:
            v = math.expm1(s2) * math.exp(2.0 * self.log_mean + s2)
        except OverflowError:
            v = math.inf
        if v < math.inf:
            return v
        # a factor or the product overflowed: the same product in logs, with
        # log expm1(s2) = s2 + log(1 - e^-s2), or 2 log(log_sd) where s2 underflows
        log_expm1 = s2 + math.log(-math.expm1(-s2)) if s2 > 0.0 else 2.0 * math.log(self.log_sd)
        return _exp(2.0 * self.log_mean + s2 + log_expm1, "lognormal variance")

    def _truncated_moment(self, order: int, upper: float) -> float:
        """Truncated-lognormal identity:

        integral_0^U x^k f(x) dx
            = exp(k*m + k^2 s^2 / 2) * Phi((ln U - m - k s^2) / s)

        Where exp(k*m + k^2 s^2 / 2) overflows, the product is taken in logs;
        NumericError if the moment itself overflows.
        """
        if upper == 0:
            return 0.0
        k = float(order)
        m, s = self.log_mean, self.log_sd
        log_full = k * m + 0.5 * (k * s) ** 2
        z = (math.log(upper) - m - k * s * s) / s
        try:
            full = math.exp(log_full)
        except OverflowError:
            return _exp(log_full + _log_norm_cdf(z), f"lognormal truncated moment of order {order}")
        return full * _norm_cdf(z)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        # exp of the normal stream: numpy's vectorised exp is faster than the
        # per-draw exp inside rng.lognormal (a draw may differ by an ulp); a
        # draw past e^709 is an infinite gap, which no hop crosses
        with np.errstate(over="ignore"):
            out = np.exp(rng.normal(self.log_mean, self.log_sd, size=size))
        return float(out) if size is None else out


@dataclass(frozen=True)
class DeterministicHeadway(HeadwayDistribution):
    """Point mass at `spacing` (platoon with fixed gaps). spacing = 0 is allowed."""

    spacing: float

    def __post_init__(self):
        _check_real("spacing", self.spacing, 0.0)

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

    def _truncated_moment(self, order: int, upper: float) -> float:
        what = "deterministic truncated moment"
        return _pow(self.spacing, order, what) if self.spacing <= upper else 0.0

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

    def __reduce__(self):
        # the init fields only, so not the prefix sums: the sorted samples,
        # which loading re-validates before it rebuilds the rest
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)

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

    def _truncated_moment(self, order: int, upper: float) -> float:
        """Exact summation over the data: mean of x^order over x <= upper."""
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


def _content_lines(path):
    """(line number, stripped text) of each line of the UTF-8 text file at path
    that is neither blank nor a '#' comment, a leading byte-order mark dropped:
    the reader of every text input. Other bytes raise ValidationError."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                if (line := raw.strip()) and not line.startswith("#"):
                    yield lineno, line
        except UnicodeDecodeError:
            raise ValidationError(f"{path}: not UTF-8 text") from None


def load_headway_file(path) -> EmpiricalHeadway:
    """Read a plain-text headway file: one nonnegative decimal value per line.

    UTF-8 text, read by `_content_lines`, so blank and '#' lines are ignored;
    the decimal separator is '.'. Unreadable, non-finite or negative lines
    raise ValidationError naming the line numbers.
    """
    values: list[float] = []
    bad: list[str] = []
    for lineno, line in _content_lines(path):
        try:
            v = float(line)
        except ValueError:
            v = math.nan  # refused with the non-finite values
        if 0.0 <= v < math.inf:
            values.append(v)
        else:
            bad.append(f"line {lineno}: {line!r}")
    if bad:
        shown = "; ".join(bad[:10])
        raise ValidationError(f"{path}: unreadable or negative headway lines ({shown})")
    if len(values) < 2:
        raise ValidationError(f"{path}: need at least 2 headway values, found {len(values)}")
    return EmpiricalHeadway.from_samples(values)
