"""Monte Carlo simulator: semantics, reproducibility, comparisons."""

import concurrent.futures
import dataclasses
import math
import multiprocessing
import subprocess
import sys

import numpy as np
import pytest

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
    SimStats,
    UniformHeadway,
    ValidationError,
    cdf,
    compare,
    mean_distance,
    run,
)
from vanetprop import cli, mc
from vanetprop.mc import BLOCK_TRIALS, _grid_index, _simulate_block

EXP = ExponentialHeadway(rate=0.2)
M_EXP = ContentionModel(p_s=0.9, max_range=100.0)
FADE = FadingModel(tx_power=1.0, gain_const=1.0, ref_distance=1.0,
                   path_loss_exp=1.0, power_threshold=0.05)


def reference_block(headway, model, seed, block_index, n):
    """Scalar re-implementation of one simulation block.

    Draws follow the exact same stream shape as the production kernel
    (one gap array then one uniform array per round, sized to the live
    set), but the bookkeeping is a plain Python loop, so index compaction
    and masking are checked independently.
    """
    key = np.array([seed, block_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    D = np.zeros(n)
    N = np.zeros(n, dtype=np.int64)
    active = list(range(n))
    while active:
        tau = headway.sample(rng, size=len(active))
        u = rng.random(len(active))
        if isinstance(model, ContentionModel):
            ok = (tau <= model.max_range) & (u < model.p_s)
        else:
            # evaluate exp on the whole array as the kernel does; a scalar
            # math.exp can differ by an ulp and flip a coin
            ok = u < np.exp(-model.decay * (tau / model.ref_distance) ** model.path_loss_exp)
        nxt = []
        for pos, trial in enumerate(active):
            if ok[pos]:
                D[trial] += tau[pos]
                N[trial] += 1
                nxt.append(trial)
        active = nxt
    return D, N


# ---------------------------------------------------------- exact semantics

def test_zero_success_probability_is_exactly_zero():
    st = run(SimConfig(EXP, ContentionModel(0.0, 100.0), trials=1000, seed=1))
    assert st.mean_D == 0.0
    assert st.var_D == 0.0
    assert st.mean_N == 0.0
    assert st.zero_fraction == 1.0


def test_distance_is_exactly_the_sum_of_accepted_gaps():
    D, N = _simulate_block(DeterministicHeadway(50.0), ContentionModel(0.5, 100.0),
                           seed=3, block_index=0, n=4096)
    assert np.array_equal(D, 50.0 * N)


def test_zero_hops_iff_zero_distance():
    D, N = _simulate_block(EXP, M_EXP, seed=4, block_index=1, n=4096)
    assert np.array_equal(N == 0, D == 0.0)
    assert np.all(D >= 0.0)


@pytest.mark.parametrize("model", [M_EXP, ContentionModel(0.4, 8.0), FADE])
def test_block_matches_scalar_reference(model):
    D, N = _simulate_block(EXP, model, seed=11, block_index=5, n=64)
    D_ref, N_ref = reference_block(EXP, model, seed=11, block_index=5, n=64)
    assert np.array_equal(D, D_ref)
    assert np.array_equal(N, N_ref)


# --------------------------------------------------------- reproducibility

def test_runs_are_bit_identical_across_workers():
    cfg = SimConfig(EXP, M_EXP, trials=50_000, seed=7, ecdf_grid=(1.0, 300.0))
    base = run(cfg, workers=1)
    for workers in (2, 4, 8):
        other = run(cfg, workers=workers)
        assert other.mean_D == base.mean_D
        assert other.var_D == base.var_D
        assert other.mean_N == base.mean_N
        assert other.ci95_mean_D == base.ci95_mean_D
        assert other.ci95_var_D == base.ci95_var_D
        assert other.zero_fraction == base.zero_fraction
        assert np.array_equal(other.ecdf.values, base.ecdf.values)
    again = run(cfg, workers=1)
    assert again.mean_D == base.mean_D and again.var_D == base.var_D


def assert_same_stats(a: SimStats, b: SimStats):
    for field in dataclasses.fields(SimStats):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if field.name == "ecdf" and x is not None:
            assert (x.grid_step, x.max_s) == (y.grid_step, y.max_s)
            assert x.values.tobytes() == y.values.tobytes()
        else:
            assert repr(x) == repr(y), field.name


@pytest.mark.parametrize("cfg", [
    SimConfig(EXP, FADE, trials=40_000, seed=8, ecdf_grid=(0.5, 200.0)),
    SimConfig(EmpiricalHeadway.from_samples([2, 5, 5, 9, 14, 33]), M_EXP,
              trials=40_000, seed=9, ecdf_grid=(0.5, 300.0)),
    SimConfig(LognormalHeadway(log_mean=1.5, log_sd=0.6), M_EXP,
              trials=3 * BLOCK_TRIALS + 1234, seed=10, ecdf_grid=(0.1, 500.0)),
], ids=["fading", "six_gaps", "lognormal_partial_block"])
def test_every_field_is_bit_identical_across_workers(cfg):
    base = run(cfg, workers=1)
    for workers in (2, 4):
        assert_same_stats(run(cfg, workers=workers), base)


def _no_pool(*args, **kwargs):
    raise AssertionError("a worker pool was started")


def test_one_block_starts_no_pool(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    one = SimConfig(EXP, M_EXP, trials=BLOCK_TRIALS, seed=3)
    assert_same_stats(run(one, workers=8), run(one, workers=1))
    two = SimConfig(EXP, M_EXP, trials=BLOCK_TRIALS + 1, seed=3)
    with pytest.raises(AssertionError, match="pool was started"):
        run(two, workers=8)


def test_no_fork_runs_in_process(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    cfg = SimConfig(EXP, M_EXP, trials=3 * BLOCK_TRIALS, seed=3)
    assert_same_stats(run(cfg, workers=2), run(cfg, workers=1))


@dataclasses.dataclass(frozen=True)
class FailingHeadway(ExponentialHeadway):
    """Exponential gaps whose sampler raises `error` inside block `fail_block`."""

    fail_block: int = 0
    error: Exception | None = None

    def sample(self, rng, size=None):
        if rng.bit_generator.state["state"]["key"][1] == self.fail_block:
            raise self.error
        return super().sample(rng, size)


SAMPLER_ERRORS = [
    (NumericError("synthetic sampler failure", estimate=1.5, error_estimate=0.25), 4),
    (ValidationError("synthetic bad gap"), 2),
]
needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="worker pool needs the fork start method")


@needs_fork
@pytest.mark.parametrize("error", [e for e, _ in SAMPLER_ERRORS], ids=["numeric", "validation"])
def test_worker_errors_reach_the_caller_typed(error):
    d = FailingHeadway(rate=0.2, fail_block=3, error=error)
    with pytest.raises(type(error)) as info:
        run(SimConfig(d, M_EXP, trials=5 * BLOCK_TRIALS, seed=9), workers=2)
    got = info.value
    assert got is not error  # raised in a worker and sent back
    assert type(got) is type(error)
    assert str(got) == str(error)
    assert vars(got) == vars(error)


@needs_fork
@pytest.mark.parametrize("error, code", SAMPLER_ERRORS, ids=["numeric", "validation"])
def test_worker_errors_keep_their_exit_codes(tmp_path, monkeypatch, capsys, error, code):
    d = FailingHeadway(rate=0.2, fail_block=1, error=error)
    monkeypatch.setattr(cli, "_build_headway", lambda params: d)
    argv = ["simulate", "--ps", "0.9", "--range", "100", "--trials", "40000",
            "--workers", "2", "--out", str(tmp_path / "s.csv")]
    assert cli.main(argv) == code
    assert str(error) in capsys.readouterr().err


def test_cli_import_loads_no_pool_module():
    probe = ("import sys, vanetprop.cli; "
             "print(*[m for m in ('concurrent.futures.process', "
             "'concurrent.futures.thread') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_different_seeds_differ():
    a = run(SimConfig(EXP, M_EXP, trials=20_000, seed=1))
    b = run(SimConfig(EXP, M_EXP, trials=20_000, seed=2))
    assert a.mean_D != b.mean_D


# ------------------------------------------------------------- convergence

def test_ci_shrinks_like_root_two():
    a = run(SimConfig(EXP, M_EXP, trials=100_000, seed=5))
    b = run(SimConfig(EXP, M_EXP, trials=200_000, seed=5))
    ratio = a.ci95_mean_D / b.ci95_mean_D
    assert abs(ratio - math.sqrt(2.0)) < 0.05 * math.sqrt(2.0)
    ratio_n = a.ci95_mean_N / b.ci95_mean_N
    assert abs(ratio_n - math.sqrt(2.0)) < 0.05 * math.sqrt(2.0)


def test_zero_fraction_matches_stopping_atom():
    n = 100_000
    st = run(SimConfig(EXP, M_EXP, trials=n, seed=6))
    atom = 1.0 - 0.9 * EXP.cdf(100.0)
    sigma = math.sqrt(atom * (1.0 - atom) / n)
    assert abs(st.zero_fraction - atom) <= 4.0 * sigma


def test_zero_fraction_matches_hop_failure_under_fading():
    n = 100_000
    st = run(SimConfig(EXP, FADE, trials=n, seed=6))
    sigma = math.sqrt(0.2 * 0.8 / n)
    assert abs(st.zero_fraction - 0.2) <= 4.0 * sigma


def test_mean_and_variance_near_analytic():
    st = run(SimConfig(EXP, M_EXP, trials=400_000, seed=8))
    assert abs(st.mean_D - 45.0) <= 4.0 * st.ci95_mean_D
    assert abs(st.var_D - 2475.0) <= 4.0 * st.ci95_var_D
    assert abs(st.mean_N - 9.0) <= 4.0 * st.ci95_mean_N


# ------------------------------------------------------------------- ECDF

def test_ecdf_grid_and_atom():
    cfg = SimConfig(EXP, M_EXP, trials=50_000, seed=9, ecdf_grid=(0.5, 200.0))
    st = run(cfg)
    assert st.ecdf is not None
    assert st.ecdf.grid_step == 0.5
    assert st.ecdf.values.size == 401
    assert st.ecdf.values[0] == st.zero_fraction  # P(D <= 0) is the stopping atom
    assert np.all(np.diff(st.ecdf.values) >= 0.0)
    assert st.ecdf.values[-1] <= 1.0


def test_ecdf_deterministic_plateau():
    n = 200_000
    st = run(SimConfig(DeterministicHeadway(50.0), ContentionModel(0.5, 100.0),
                       trials=n, seed=10, ecdf_grid=(5.0, 400.0)))
    at75 = st.ecdf.values[15]
    sigma = math.sqrt(0.75 * 0.25 / n)
    assert abs(at75 - 0.75) <= 4.0 * sigma


@pytest.mark.parametrize("step", [0.01, 0.1, 0.3])
def test_grid_index_equals_searchsorted(step):
    max_s = 150.0
    grid = np.arange(int(math.floor(max_s / step + 1e-9)) + 1) * step
    D, _ = _simulate_block(EXP, M_EXP, 4, 0, 8192)
    beside = np.concatenate([np.nextafter(grid, 0.0), np.nextafter(grid, np.inf)])
    for sample in (D, grid, beside, np.array([0.0, max_s, 2.0 * max_s, 1e6])):
        assert np.array_equal(_grid_index(grid, sample),
                              np.searchsorted(grid, sample, side="left"))


def test_no_ecdf_without_grid():
    st = run(SimConfig(EXP, M_EXP, trials=100, seed=0))
    assert st.ecdf is None


# ----------------------------------------------------------- tiny runs

def test_single_trial_has_no_variance():
    st = run(SimConfig(EXP, M_EXP, trials=1, seed=12))
    assert st.var_D is None
    assert st.ci95_var_D is None
    assert st.ci95_mean_D == math.inf
    with pytest.raises(ValidationError):
        compare(45.0, st, "mean_D")


# ------------------------------------------------------------- comparisons

def test_compare_scalar_metrics():
    st = run(SimConfig(EXP, M_EXP, trials=200_000, seed=13))
    rep = compare(mean_distance(EXP, M_EXP), st, "mean_D")
    assert rep.passed
    assert rep.abs_error <= 4.0 * rep.ci95
    assert rep.rel_error == rep.abs_error / rep.analytic

    off = compare(2.0 * mean_distance(EXP, M_EXP), st, "mean_D")
    assert not off.passed


def test_compare_zero_against_zero():
    st = run(SimConfig(EXP, ContentionModel(0.0, 100.0), trials=100, seed=1))
    rep = compare(0.0, st, "mean_D")
    assert rep.passed
    assert rep.abs_error == 0.0
    assert rep.rel_error == 0.0


def test_compare_cdf_supnorm():
    curve = cdf(DeterministicHeadway(50.0), ContentionModel(0.5, 100.0),
                grid_step=5.0, max_s=400.0)
    st = run(SimConfig(DeterministicHeadway(50.0), ContentionModel(0.5, 100.0),
                       trials=200_000, seed=14, ecdf_grid=(5.0, 400.0)))
    rep = compare(curve, st, "cdf_supnorm")
    assert rep.passed
    assert rep.abs_error < 0.01


def test_compare_cdf_validation():
    st = run(SimConfig(EXP, M_EXP, trials=1000, seed=15, ecdf_grid=(1.0, 200.0)))
    curve = cdf(EXP, M_EXP, grid_step=0.5, max_s=200.0)
    with pytest.raises(ValidationError):
        compare(curve, st, "cdf_supnorm")          # grids differ
    with pytest.raises(ValidationError):
        compare(45.0, st, "cdf_supnorm")           # not a CdfCurve
    bare = run(SimConfig(EXP, M_EXP, trials=1000, seed=15))
    good = cdf(EXP, M_EXP, grid_step=1.0, max_s=200.0)
    with pytest.raises(ValidationError):
        compare(good, bare, "cdf_supnorm")         # no ECDF collected
    with pytest.raises(ValidationError):
        compare(45.0, st, "hop_count")             # unknown metric


# -------------------------------------------------------------- validation

def test_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(EXP, M_EXP, trials=0, seed=0)
    with pytest.raises(ValidationError):
        SimConfig(EXP, M_EXP, trials=10.0, seed=0)
    with pytest.raises(ValidationError):
        SimConfig(EXP, M_EXP, trials=10, seed=-1)
    with pytest.raises(ValidationError):
        SimConfig(EXP, M_EXP, trials=10, seed=2 ** 64)
    with pytest.raises(ValidationError):
        SimConfig(EXP, "contention", trials=10, seed=0)
    with pytest.raises(ValidationError):
        SimConfig(EXP, M_EXP, trials=10, seed=0, ecdf_grid=(0.0, 100.0))
    with pytest.raises(ValidationError):
        SimConfig(EXP, M_EXP, trials=10, seed=0, ecdf_grid=(5.0, 1.0))
    with pytest.raises(ValidationError):
        run(SimConfig(EXP, M_EXP, trials=10, seed=0), workers=0)


@pytest.mark.parametrize("grid", [(1.0, math.inf), (math.inf, math.inf), (1.0, math.nan)])
def test_config_rejects_a_non_finite_ecdf_grid(grid):
    with pytest.raises(ValidationError, match="finite max_s"):
        SimConfig(EXP, M_EXP, trials=10, seed=0, ecdf_grid=grid)


@pytest.mark.parametrize("limit, runs", [(8.9, False), (9.1, True)])
def test_the_hop_limit_applies_to_the_expected_cluster_size(monkeypatch, limit, runs):
    monkeypatch.setattr(mc, "MAX_MEAN_HOPS", limit)  # M_EXP has E[N] = 8.9999998
    if runs:
        assert run(SimConfig(EXP, M_EXP, trials=10, seed=0)).trials == 10
    else:
        with pytest.raises(DegenerateProcessError):
            run(SimConfig(EXP, M_EXP, trials=10, seed=0))


def test_degenerate_processes_refuse_to_run():
    with pytest.raises(DegenerateProcessError):
        run(SimConfig(UniformHeadway(0.0, 10.0), ContentionModel(1.0, 100.0),
                      trials=10, seed=0))
    with pytest.raises(DegenerateProcessError):
        run(SimConfig(DeterministicHeadway(0.0), FADE, trials=10, seed=0))
    # q = 1 - e^-20: E[N] ~ 4.9e8 hops per trial would run for days
    with pytest.raises(DegenerateProcessError, match="expected hops per trial"):
        run(SimConfig(EXP, ContentionModel(1.0, 100.0), trials=10, seed=0))
