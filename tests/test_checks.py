"""Numeric arguments: every value object and solver argument takes an int or
a float (subclasses too), never a bool, finite and within its bounds, and a
bad one raises a ValidationError that names it."""

import math

import numpy as np
import pytest

from vanetprop import (
    ContentionModel,
    DeterministicHeadway,
    ExponentialHeadway,
    FadingModel,
    LognormalHeadway,
    SimConfig,
    UniformHeadway,
    ValidationError,
    cdf,
    run,
    success_prob,
)
from vanetprop.quad import integrate, integrate_semi_infinite

EXP = ExponentialHeadway(rate=0.2)
CONTENTION = ContentionModel(p_s=0.9, max_range=100.0)
LINK = dict(tx_power=1.0, gain_const=1.0, ref_distance=1.0, path_loss_exp=2.0,
            power_threshold=0.05)
FADING = FadingModel(**LINK)


def _decay(x):
    return np.exp(-x)


def _fading(**field):
    return FadingModel(**{**LINK, **field})


# (argument, a call that passes it v, an in-range int, whether the result keeps v)
REALS = [
    ("rate", lambda v: ExponentialHeadway(rate=v), 2, True),
    ("low", lambda v: UniformHeadway(low=v, high=10.0), 2, True),
    ("high", lambda v: UniformHeadway(low=1.0, high=v), 2, True),
    ("log_mean", lambda v: LognormalHeadway(log_mean=v, log_sd=0.5), 2, True),
    ("log_sd", lambda v: LognormalHeadway(log_mean=1.0, log_sd=v), 2, True),
    ("spacing", lambda v: DeterministicHeadway(spacing=v), 2, True),
    ("p_s", lambda v: ContentionModel(p_s=v, max_range=100.0), 1, True),
    ("max_range", lambda v: ContentionModel(p_s=0.5, max_range=v), 2, True),
    *((name, lambda v, name=name: _fading(**{name: v}), 2, True) for name in LINK),
    ("tau", lambda v: success_prob(FADING, v), 2, False),
    ("upper", lambda v: EXP.truncated_moment(1, v), 2, False),
    ("a", lambda v: integrate(_decay, v, 10.0), 2, False),
    ("b", lambda v: integrate(_decay, 0.0, v), 2, False),
    ("rel_tol", lambda v: integrate(_decay, 0.0, 1.0, rel_tol=v), 2, False),
    ("a", lambda v: integrate_semi_infinite(_decay, v), 2, False),
    # a stack held to its first level, as a sweep's chunk of hop laws is integrated
    ("a", lambda v: integrate(lambda x: _decay(x)[None], v, 10.0, max_panels=32), 2, False),
    ("grid_step", lambda v: cdf(EXP, FADING, v, 4.0), 2, False),
    ("max_s", lambda v: cdf(EXP, FADING, 0.5, v), 2, False),
    ("grid_step", lambda v: SimConfig(EXP, FADING, 10, 0, ecdf_grid=(v, 4.0)), 2, False),
    ("max_s", lambda v: SimConfig(EXP, FADING, 10, 0, ecdf_grid=(0.5, v)), 2, False),
]
INTS = [
    ("trials", lambda v: SimConfig(EXP, CONTENTION, trials=v, seed=0), 10, True),
    ("seed", lambda v: SimConfig(EXP, CONTENTION, trials=10, seed=v), 2 ** 64 - 1, True),
    ("workers", lambda v: run(SimConfig(EXP, CONTENTION, trials=10, seed=0), workers=v), 1,
     False),
]
BAD = [True, False, math.nan, math.inf, -math.inf, np.int64(2), np.float32(0.5), "1"]


def _ids(sites):
    return [f"{site[0]}-{i}" for i, site in enumerate(sites)]


@pytest.mark.parametrize("name, call, good, keeps", REALS + INTS, ids=_ids(REALS + INTS))
@pytest.mark.parametrize("bad", BAD, ids=repr)
def test_a_bad_numeric_argument_is_refused_by_name(name, call, good, keeps, bad):
    with pytest.raises(ValidationError, match=name):
        call(bad)


# reals take an int or an np.float64, counts an int
KEPT = [(*site, kind) for site in REALS for kind in (int, np.float64)] + \
    [(*site, int) for site in INTS]


@pytest.mark.parametrize("name, call, good, keeps, kind", KEPT,
                         ids=[f"{i}-{k[0]}-{k[-1].__name__}" for i, k in enumerate(KEPT)])
def test_an_in_range_int_or_float_subclass_is_kept_as_given(name, call, good, keeps, kind):
    value = kind(good)
    out = call(value)
    if keeps:
        assert getattr(out, name) is value


@pytest.mark.parametrize("grid, size", [((0.1, 0.3), 4), ((0.01, 500.0), 50001),
                                        ((0.02, 500.0), 25001), ((0.5, 97.3), 195)])
def test_grid_point_count(grid, size):
    # floor(max_s / step + 1e-9) + 1 points: 0.3 / 0.1 rounds to 2.9999999999999996
    assert cdf(EXP, FADING, *grid).values.size == size
    assert run(SimConfig(EXP, FADING, trials=10, seed=0, ecdf_grid=grid)).ecdf.values.size == size
