"""Monte Carlo simulator: semantics, reproducibility, comparisons."""

import dataclasses
import math
import os
import pickle
import select
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vanetprop import (
    ChannelModel,
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
from vanetprop import analytic, cli, mc
from vanetprop.analytic import hop_failure_prob
from vanetprop.mc import BLOCK_TRIALS, _grid_index, _simulate_block

EXP = ExponentialHeadway(rate=0.2)
M_EXP = ContentionModel(p_s=0.9, max_range=100.0)
FADE = FadingModel(tx_power=1.0, gain_const=1.0, ref_distance=1.0,
                   path_loss_exp=1.0, power_threshold=0.05)


def reference_block(headway, model, seed, block_index, n):
    """Scalar re-implementation of one simulation block.

    Draws follow the exact same stream shape as the production kernel
    (chunks of n hops: one gap array, then one uniform array), but the
    stream is walked one hop at a time in a plain Python loop, so the
    chunk carry-over, the cut at the n-th failure and the per-trial sums
    are checked independently.
    """
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, block_index))))
    D = np.zeros(n)
    N = np.zeros(n, dtype=np.int64)
    trial = 0
    while trial < n:
        tau = headway.sample(rng, size=n)
        u = rng.random(n)
        if isinstance(model, ContentionModel):
            ok = (tau <= model.max_range) & (u < model.p_s)
        else:
            # evaluate exp on the whole array as the kernel does; a scalar
            # math.exp can differ by an ulp and flip a coin
            ok = u < np.exp(-model.decay * (tau / model.ref_distance) ** model.path_loss_exp)
        for pos in range(n):
            if trial == n:
                break
            if ok[pos]:
                D[trial] += tau[pos]
                N[trial] += 1
            else:
                trial += 1
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
    # the block used N.sum() successes and 64 failures, no multiple of 64,
    # so its last chunk left hops unused
    assert (N.sum() + 64) % 64 != 0


LONG = ContentionModel(0.999, 1e9)  # E[N] = 999 hops per trial


@pytest.mark.parametrize("headway, model, n", [
    (EXP, LONG, 5),
    (EmpiricalHeadway.from_samples([2, 5, 5, 9, 14, 33]), LONG, 5),
    (EXP, FADE, 7),
    (DeterministicHeadway(50.0), ContentionModel(0.5, 100.0), 3),
], ids=["exp_long_trials", "six_gaps_long_trials", "fading", "deterministic"])
def test_chunk_carry_and_cut_match_scalar_reference(headway, model, n):
    D, N = _simulate_block(headway, model, seed=2, block_index=9, n=n)
    D_ref, N_ref = reference_block(headway, model, seed=2, block_index=9, n=n)
    assert np.array_equal(D, D_ref)
    assert np.array_equal(N, N_ref)
    if model is LONG:
        assert N.max() > 2 * n  # some trial spans several chunks


def test_the_kernel_leaves_its_headway_alone():
    # the kernel zeroes failed gaps in the array `sample` returns; a family
    # that handed back its own storage would have it overwritten
    data = [2.0, 5.0, 5.0, 9.0, 14.0, 33.0]
    emp = EmpiricalHeadway.from_samples(data)
    det = DeterministicHeadway(50.0)
    for d in (emp, det):
        _, N = _simulate_block(d, LONG, seed=4, block_index=1, n=5)
        assert N.sum() + 5 > 3 * 5  # several chunks were drawn
    assert np.array_equal(emp.samples, sorted(data))
    assert np.array_equal(emp._csum1, np.cumsum(sorted(data)))
    assert det.spacing == 50.0
    assert np.all(det.sample(np.random.default_rng(0), size=8) == 50.0)


@dataclasses.dataclass(frozen=True)
class RecordingHeadway(ExponentialHeadway):
    """Exponential gaps that record the size of every draw."""

    sizes: list = dataclasses.field(default_factory=list)

    def sample(self, rng, size=None):
        self.sizes.append(size)
        return super().sample(rng, size)


NEAR_HOP_LIMIT = ContentionModel(0.9999, 1e9)  # E[N] = 9999


@pytest.mark.parametrize("model", [M_EXP, LONG, NEAR_HOP_LIMIT],
                         ids=["short", "long", "near_the_hop_limit"])
def test_no_chunk_is_larger_than_the_block(model):
    n = 20
    d = RecordingHeadway(rate=0.2)
    if model is NEAR_HOP_LIMIT:
        # E[N] = 9999 sits on the budget of MAX_MEAN_HOPS = 1e4 hops per trial:
        # this block's trials need 10 038 chunks, so it refuses after 10 000
        with pytest.raises(DegenerateProcessError, match="in 200000 hops drawn"):
            _simulate_block(d, model, seed=1, block_index=0, n=n)
        assert set(d.sizes) == {n}
        assert len(d.sizes) == mc.MAX_MEAN_HOPS
        return
    _, N = _simulate_block(d, model, seed=1, block_index=0, n=n)
    assert set(d.sizes) == {n}
    # exactly the chunks that hold the block's N.sum() + n hops
    assert len(d.sizes) == -(-(int(N.sum()) + n) // n)


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
    # 50 001 bins: each pool task sums its blocks' histograms into one
    SimConfig(EXP, M_EXP, trials=9 * BLOCK_TRIALS + 5, seed=12, ecdf_grid=(0.01, 500.0)),
], ids=["fading", "six_gaps", "lognormal_partial_block", "fine_grid"])
def test_every_field_is_bit_identical_across_workers(cfg):
    base = run(cfg, workers=1)
    for workers in (2, 4):
        assert_same_stats(run(cfg, workers=workers), base)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="worker pool needs os.fork")


@pytest.fixture
def deadline():
    """arm(seconds) makes the test raise TimeoutError once it runs that long,
    so a pool that never finishes fails instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError("deadline passed")

    old = signal.signal(signal.SIGALRM, expire)
    yield lambda seconds: signal.setitimer(signal.ITIMER_REAL, seconds)
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, old)


def _no_pool(*args, **kwargs):
    raise AssertionError("a worker pool was started")


def test_one_block_starts_no_pool(monkeypatch):
    mc._stop_pools()  # an idle pool left by an earlier test would serve two blocks
    monkeypatch.setattr(os, "fork", _no_pool)
    one = SimConfig(EXP, M_EXP, trials=BLOCK_TRIALS, seed=3)
    assert_same_stats(run(one, workers=8), run(one, workers=1))
    two = SimConfig(EXP, M_EXP, trials=BLOCK_TRIALS + 1, seed=3)
    with pytest.raises(AssertionError, match="pool was started"):
        run(two, workers=8)


def test_no_fork_runs_in_process(monkeypatch):
    # the pool's probe is hasattr(os, "fork"): a platform without fork has no os.fork
    monkeypatch.delattr(os, "fork")
    cfg = SimConfig(EXP, M_EXP, trials=3 * BLOCK_TRIALS, seed=3)
    assert_same_stats(run(cfg, workers=2), run(cfg, workers=1))


@dataclasses.dataclass(frozen=True)
class SlowHeadway(ExponentialHeadway):
    """Exponential gaps whose sampler sleeps `pause` seconds per chunk in
    the blocks `slow_blocks`."""

    slow_blocks: tuple[int, ...] = ()
    pause: float = 0.01

    def sample(self, rng, size=None):
        _seed, block = rng.bit_generator.seed_seq.entropy
        if block in self.slow_blocks:
            time.sleep(self.pause)
        return super().sample(rng, size)


@needs_fork
@pytest.mark.parametrize("workers, slow", [(2, (0,)), (2, (1, 2)), (3, (0, 5, 6))],
                         ids=["first", "early_pair", "spread"])
def test_blocks_claimed_out_of_order_reduce_in_block_order(deadline, workers, slow):
    # a sleeping block holds its worker up while the others claim the next
    # ones, so the workers finish their blocks out of block order
    cfg = SimConfig(SlowHeadway(rate=0.2, slow_blocks=slow), M_EXP,
                    trials=7 * BLOCK_TRIALS + 99, seed=21, ecdf_grid=(0.5, 300.0))
    base = run(cfg, workers=1)
    deadline(30.0)
    assert_same_stats(run(cfg, workers=workers), base)


@needs_fork
def test_an_interrupted_run_kills_its_workers(deadline):
    # each block sleeps about 10 s; the run is interrupted after 0.3 s
    cfg = SimConfig(SlowHeadway(rate=0.2, slow_blocks=tuple(range(4)), pause=1.0), M_EXP,
                    trials=4 * BLOCK_TRIALS, seed=21)
    start = time.monotonic()
    deadline(0.3)
    with pytest.raises(TimeoutError):
        run(cfg, workers=2)
    assert time.monotonic() - start < 5.0
    with pytest.raises(ChildProcessError):  # no child of this process is left
        os.waitpid(-1, os.WNOHANG)


@dataclasses.dataclass(frozen=True)
class FailingHeadway(ExponentialHeadway):
    """Exponential gaps whose sampler raises `error` inside block `fail_block`."""

    fail_block: int = 0
    error: Exception | None = None

    def sample(self, rng, size=None):
        _seed, block = rng.bit_generator.seed_seq.entropy
        if block == self.fail_block:
            raise self.error
        return super().sample(rng, size)


SAMPLER_ERRORS = [
    (NumericError("synthetic sampler failure", estimate=1.5, error_estimate=0.25), 4),
    (ValidationError("synthetic bad gap"), 2),
]


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
    monkeypatch.setitem(cli._HEADWAYS, "exponential", (lambda rate: d, ("rate",)))
    argv = ["simulate", "--headway", "exponential", "--rate", "0.2", "--ps", "0.9", "--range", "100", "--trials", "40000",
            "--workers", "2", "--out", str(tmp_path / "s.csv")]
    assert cli.main(argv) == code
    assert str(error) in capsys.readouterr().err


@dataclasses.dataclass(frozen=True)
class DyingHeadway(ExponentialHeadway):
    """Exponential gaps whose sampler ends its process with status 7 in block `die_block`."""

    die_block: int = 0

    def sample(self, rng, size=None):
        _seed, block = rng.bit_generator.seed_seq.entropy
        if block == self.die_block:
            os._exit(7)
        return super().sample(rng, size)


@needs_fork
def test_a_worker_that_dies_is_reported_and_every_worker_is_reaped(deadline):
    cfg = SimConfig(DyingHeadway(rate=0.2, die_block=2), M_EXP, trials=6 * BLOCK_TRIALS, seed=9)
    start = time.monotonic()
    deadline(30.0)
    with pytest.raises(RuntimeError, match="exited with status 7 without a result"):
        run(cfg, workers=2)
    assert time.monotonic() - start < 10.0
    with pytest.raises(ChildProcessError):  # no child of this process is left
        os.waitpid(-1, os.WNOHANG)


# ------------------------------------------------------ pool lifetime

def _pool_pids():
    """Worker pids of this process's idle pools."""
    return [pid for pool in mc._idle for pid in pool.workers]


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):  # no longer a child of this process
            os.waitpid(pid, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("workers", [2, 8])
def test_a_second_run_at_the_same_count_forks_nothing(monkeypatch, deadline, workers):
    # at 8 workers, more than most hosts have cores, the workers race for the
    # tickets of 19 blocks in each of three runs
    cfg = SimConfig(EmpiricalHeadway.from_samples([2, 5, 5, 9, 14, 33]), M_EXP,
                    trials=18 * BLOCK_TRIALS + 7, seed=31, ecdf_grid=(0.5, 300.0))
    base = run(cfg, workers=1)
    deadline(60.0)
    run(SimConfig(EXP, FADE, trials=8 * BLOCK_TRIALS, seed=1), workers=workers)
    pids = _pool_pids()
    assert len(pids) == workers
    monkeypatch.setattr(os, "fork", _no_pool)
    for _ in range(3):
        assert_same_stats(run(cfg, workers=workers), base)
    assert _pool_pids() == pids


@needs_fork
def test_a_worker_that_died_between_runs_is_replaced(deadline):
    cfg = SimConfig(EXP, M_EXP, trials=4 * BLOCK_TRIALS, seed=6, ecdf_grid=(1.0, 300.0))
    base = run(cfg, workers=1)
    run(cfg, workers=2)
    pids = _pool_pids()
    os.kill(pids[0], signal.SIGKILL)  # ended while idle, as by the kernel's OOM killer
    deadline(60.0)
    os.waitid(os.P_PID, pids[0], os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
    assert_same_stats(run(cfg, workers=2), base)
    assert not set(_pool_pids()) & set(pids)
    _assert_reaped(pids)


@needs_fork
def test_a_ctrl_c_leaves_idle_workers_serving(monkeypatch):
    cfg = SimConfig(EXP, M_EXP, trials=4 * BLOCK_TRIALS, seed=6, ecdf_grid=(1.0, 300.0))
    base = run(cfg, workers=1)
    for _ in range(2):  # a worker ignores SIGINT once it has handed back a result
        run(cfg, workers=2)
    pids = _pool_pids()
    for pid in pids:  # what a Ctrl-C at a prompt sends the whole process group
        os.kill(pid, signal.SIGINT)
    monkeypatch.setattr(os, "fork", _no_pool)
    assert_same_stats(run(cfg, workers=2), base)
    assert _pool_pids() == pids


@needs_fork
def test_a_pipe_the_caller_closes_reaches_eof_while_the_pool_idles():
    mc._stop_pools()
    r, w = os.pipe()  # opened before the pool, so the workers are forked with it
    with open(r, "rb", buffering=0) as reader:
        try:
            run(SimConfig(EXP, M_EXP, trials=3 * BLOCK_TRIALS, seed=2), workers=2)
        finally:
            os.close(w)
        assert len(_pool_pids()) == 2
        # readable at once only if no idle worker still holds the write end
        assert select.select([reader], [], [], 10.0)[0] == [reader]
        assert reader.read(1) == b""


@needs_fork
def test_a_job_that_names_a_class_bound_after_the_fork_forks_a_new_pool(monkeypatch):
    run(SimConfig(EXP, M_EXP, trials=3 * BLOCK_TRIALS, seed=8), workers=2)
    pids = _pool_pids()

    class LateFloat(float):
        pass

    # pickled by reference to this module's LateFloat, which the workers lack
    LateFloat.__qualname__ = "LateFloat"
    monkeypatch.setattr(sys.modules[__name__], "LateFloat", LateFloat, raising=False)
    cfg = SimConfig(ExponentialHeadway(rate=LateFloat(0.2)), M_EXP,
                    trials=3 * BLOCK_TRIALS + 5, seed=8, ecdf_grid=(LateFloat(0.5), 300.0))
    assert_same_stats(run(cfg, workers=2), run(cfg, workers=1))
    assert len(_pool_pids()) == 2 and not set(_pool_pids()) & set(pids)
    _assert_reaped(pids)


@needs_fork
def test_a_headway_class_that_cannot_be_pickled_still_runs_pooled_again():
    @dataclasses.dataclass(frozen=True)
    class LocalHeadway(ExponentialHeadway):
        pass

    cfg = SimConfig(LocalHeadway(rate=0.2), M_EXP, trials=3 * BLOCK_TRIALS, seed=4,
                    ecdf_grid=(1.0, 300.0))
    base = run(cfg, workers=1)
    for _ in range(2):  # the pool was forked with this class, but cannot be sent it
        assert_same_stats(run(cfg, workers=2), base)


@needs_fork
def test_a_new_worker_count_reforks(monkeypatch):
    cfg = SimConfig(EXP, M_EXP, trials=4 * BLOCK_TRIALS, seed=6, ecdf_grid=(1.0, 300.0))
    base = run(cfg, workers=1)
    run(cfg, workers=2)
    old = _pool_pids()
    forks = []
    fork = os.fork

    def counted():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    assert_same_stats(run(cfg, workers=3), base)
    assert len(forks) == 3
    assert len(_pool_pids()) == 3
    _assert_reaped(old)


BAD_GAP = ValidationError("synthetic bad gap")


@needs_fork
@pytest.mark.parametrize("healthy, failing, error", [
    (FailingHeadway(rate=0.2, fail_block=99, error=BAD_GAP),
     FailingHeadway(rate=0.2, fail_block=2, error=BAD_GAP), ValidationError),
    (DyingHeadway(rate=0.2, die_block=99), DyingHeadway(rate=0.2, die_block=2), RuntimeError),
], ids=["typed_error", "dying_worker"])
def test_a_failed_run_kills_its_pool_and_the_next_run_forks_a_fresh_one(deadline, healthy,
                                                                        failing, error):
    cfg = SimConfig(EXP, M_EXP, trials=4 * BLOCK_TRIALS, seed=5, ecdf_grid=(1.0, 300.0))
    base = run(cfg, workers=1)
    deadline(60.0)
    # the pool is forked with the failing class, so the failing run reuses it
    run(SimConfig(healthy, M_EXP, trials=4 * BLOCK_TRIALS, seed=5), workers=2)
    pids = _pool_pids()
    with pytest.raises(error):
        run(SimConfig(failing, M_EXP, trials=4 * BLOCK_TRIALS, seed=5), workers=2)
    assert _pool_pids() == []
    with pytest.raises(ChildProcessError):  # no child of this process is left
        os.waitpid(-1, os.WNOHANG)
    assert_same_stats(run(cfg, workers=2), base)
    assert not set(_pool_pids()) & set(pids)


@needs_fork
def test_a_process_that_ran_a_pooled_simulate_leaves_no_worker_behind(tmp_path):
    probe = ("from vanetprop import cli, mc; "
             "code = cli.main(['simulate', '--headway', 'exponential', '--rate', '0.2', "
             "'--ps', '0.9', '--range', '100', '--trials', '20000', '--workers', '2', "
             f"'--out', {str(tmp_path / 's.csv')!r}]); "
             "print(code, *[pid for pool in mc._idle for pid in pool.workers])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, *pids = proc.stdout.split()
    assert code == "0" and len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid), 0)


def _shifted_headway(shift):
    """A headway class named like the module-level ShiftedHeadway, whose gaps
    are exponential plus `shift`."""

    @dataclasses.dataclass(frozen=True)
    class ShiftedHeadway(ExponentialHeadway):
        def sample(self, rng, size=None):
            return super().sample(rng, size) + shift

    ShiftedHeadway.__qualname__ = "ShiftedHeadway"
    return ShiftedHeadway


def _shifted_config(cls):
    return SimConfig(cls(rate=0.2), M_EXP, trials=3 * BLOCK_TRIALS + 5, seed=8,
                     ecdf_grid=(0.5, 300.0))


@needs_fork
def test_a_headway_class_defined_after_the_pool_started_runs_its_own_code(monkeypatch):
    run(SimConfig(EXP, M_EXP, trials=3 * BLOCK_TRIALS, seed=8), workers=2)
    assert _pool_pids()
    late = _shifted_headway(1.0)
    monkeypatch.setattr(sys.modules[__name__], "ShiftedHeadway", late, raising=False)
    cfg = _shifted_config(late)
    assert_same_stats(run(cfg, workers=2), run(cfg, workers=1))


@needs_fork
def test_a_headway_class_redefined_after_the_pool_started_runs_its_new_code(monkeypatch):
    module = sys.modules[__name__]
    old, new = _shifted_headway(0.0), _shifted_headway(1.0)
    monkeypatch.setattr(module, "ShiftedHeadway", old, raising=False)
    run(_shifted_config(old), workers=2)  # the pool is forked with the old class
    old_base = run(_shifted_config(old), workers=1)
    monkeypatch.setattr(module, "ShiftedHeadway", new)
    base = run(_shifted_config(new), workers=1)
    assert base.mean_D != old_base.mean_D
    assert_same_stats(run(_shifted_config(new), workers=2), base)


@needs_fork
def test_a_child_forked_by_the_caller_runs_its_own_pool(monkeypatch, deadline):
    cfg = SimConfig(EXP, FADE, trials=3 * BLOCK_TRIALS + 1, seed=13, ecdf_grid=(0.5, 200.0))
    base = run(cfg, workers=1)
    run(cfg, workers=2)
    parents = _pool_pids()
    deadline(60.0)
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(r)
            dropped = not mc._idle  # the parent's pool is not the child's
            stats = run(cfg, workers=2)
            own = _pool_pids()
            mc._stop_pools()
            with open(w, "wb") as fh:
                pickle.dump((dropped, own, stats), fh)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    with open(r, "rb") as fh:
        dropped, own, stats = pickle.load(fh)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    assert dropped
    assert len(own) == 2 and not set(own) & set(parents)
    assert_same_stats(stats, base)
    monkeypatch.setattr(os, "fork", _no_pool)
    assert_same_stats(run(cfg, workers=2), base)  # the parent's pool still serves
    assert _pool_pids() == parents


def test_cli_import_loads_no_pool_module():
    # numpy.fft too: the CDF march loads it on its first solve
    probe = ("import sys, vanetprop.cli; "
             "print(*[m for m in ('concurrent.futures.process', "
             "'concurrent.futures.thread', 'numpy.fft') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


@needs_fork
def test_a_pooled_simulate_loads_no_pool_module(tmp_path):
    probe = ("import sys; from vanetprop import cli; "
             "code = cli.main(['simulate', '--headway', 'exponential', '--rate', '0.2', "
             "'--ps', '0.9', '--range', '100', '--trials', '20000', '--workers', '2', "
             f"'--out', {str(tmp_path / 's.csv')!r}]); "
             "print(code, *[m for m in ('multiprocessing', 'concurrent.futures') "
             "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


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
        assert np.array_equal(_grid_index(step, grid.size, sample),
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


def test_cdf_gate_is_the_dkw_band_until_it_reaches_the_floor():
    assert mc.cdf_supnorm_gate(2000) == pytest.approx(math.sqrt(math.log(2000.0) / 4000.0))
    assert 0.043 < mc.cdf_supnorm_gate(2000) < 0.044
    assert mc.cdf_supnorm_gate(38_100) == 0.01
    assert mc.cdf_supnorm_gate(1_000_000) == 0.01
    assert mc.cdf_supnorm_gate(38_000) > 0.01


def _cdf_check(headway, model, step, trials=200_000, curve_model=None):
    """cdf_supnorm of the curve under curve_model (default: model) against a simulation of model."""
    grid = (step, 300.0)
    sim = run(SimConfig(headway, model, trials=trials, seed=3, ecdf_grid=grid))
    return compare(cdf(headway, curve_model or model, *grid), sim, "cdf_supnorm")


def test_a_correct_curve_passes_at_few_trials():
    rep = _cdf_check(EXP, M_EXP, 1.0, trials=2000)
    assert rep.abs_error > mc.CDF_SUPNORM_FLOOR  # the fixed floor alone would fail it
    assert rep.passed


@pytest.mark.parametrize("p_s, trials", [(0.8, 2000), (0.8, 1_000_000), (0.88, 1_000_000)])
def test_a_curve_with_a_wrong_success_probability_fails(p_s, trials):
    rep = _cdf_check(EXP, M_EXP, 1.0, trials, curve_model=ContentionModel(p_s, 100.0))
    assert not rep.passed


STEP = 0.125  # binary: sums of on-grid atoms stay on the grid exactly
# Densities span at least 40 grid steps. Atoms and uniform edges sit on the
# grid: between grid points an atom is off (see the xfail below), and an
# edge has its own test.
GAPS = st.one_of(
    st.builds(ExponentialHeadway, rate=st.floats(0.02, 0.2)),
    st.builds(lambda k, j: UniformHeadway(k * STEP, (k + j) * STEP),
              st.integers(0, 160), st.integers(40, 240)),
    st.builds(LognormalHeadway, log_mean=st.floats(1.6, 3.0), log_sd=st.floats(0.2, 1.5)),
    st.builds(lambda k: DeterministicHeadway(k * STEP), st.integers(8, 240)),
    st.builds(lambda ks: EmpiricalHeadway.from_samples([k * STEP for k in ks]),
              st.lists(st.integers(0, 240), min_size=2, max_size=10)),
)
CHANNELS = {
    "contention": st.builds(ContentionModel, p_s=st.floats(0.3, 0.95),
                            max_range=st.floats(5.0, 60.0)),
    # p_s(tau) = 1/2 at tau = ref_distance
    "fading": st.builds(lambda r50, alpha: FadingModel(1.0, 1.0, r50, alpha, math.log(2.0)),
                        st.floats(3.0, 40.0), st.floats(1.0, 4.0)),
}


@pytest.mark.parametrize("channel", CHANNELS)
def test_solved_cdf_is_within_the_gate_of_the_ecdf(channel):
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(headway=GAPS, model=CHANNELS[channel])
    def check(headway, model):
        fail = hop_failure_prob(headway, model)
        assume(fail > 0.0 and (1.0 - fail) / fail <= 30.0)
        rep = _cdf_check(headway, model, STEP)
        assert rep.passed, (headway, model, rep.abs_error)

    check()


@pytest.mark.xfail(strict=True, reason="an atom between grid points is interpolated "
                   "over its cell, so F_D is off by up to the jump at the atom's sums")
def test_solved_cdf_of_an_atom_between_grid_points():
    assert _cdf_check(DeterministicHeadway(7.3), M_EXP, 0.5).passed


def test_solved_cdf_past_a_density_edge_between_grid_points():
    # the kernel mass is integrated over the support, edges and all, so it
    # matches 1 - q and the march no longer overshoots 1
    model = FadingModel(1.0, 1.0, 6.0, 1.0, math.log(2.0))
    assert _cdf_check(UniformHeadway(0.5, 29.295669433672185), model, STEP).passed


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
    with pytest.raises(ValidationError, match="headway"):
        SimConfig("exponential", M_EXP, trials=10, seed=0)
    with pytest.raises(ValidationError):
        SimConfig(EXP, M_EXP, trials=10, seed=0, ecdf_grid=(0.0, 100.0))
    with pytest.raises(ValidationError):
        SimConfig(EXP, M_EXP, trials=10, seed=0, ecdf_grid=(5.0, 1.0))
    # a grid that is not a (grid_step, max_s) pair is refused by its name
    for grid in (5.0, (1.0,), (0.5, 100.0, 3)):
        with pytest.raises(ValidationError, match="ecdf_grid"):
            SimConfig(EXP, M_EXP, trials=10, seed=0, ecdf_grid=grid)
    with pytest.raises(ValidationError):
        run(SimConfig(EXP, M_EXP, trials=10, seed=0), workers=0)
    # bool is an int subclass, but True is not a count
    with pytest.raises(ValidationError, match="trials"):
        SimConfig(EXP, M_EXP, trials=True, seed=0)
    with pytest.raises(ValidationError, match="seed"):
        SimConfig(EXP, M_EXP, trials=10, seed=False)
    with pytest.raises(ValidationError, match="workers"):
        run(SimConfig(EXP, M_EXP, trials=10, seed=0), workers=True)


@pytest.mark.parametrize("grid", [(1.0, math.inf), (math.inf, math.inf), (1.0, math.nan)])
def test_config_rejects_a_non_finite_ecdf_grid(grid):
    with pytest.raises(ValidationError, match="finite max_s"):
        SimConfig(EXP, M_EXP, trials=10, seed=0, ecdf_grid=grid)


@pytest.mark.parametrize("limit, runs", [(8.9, False), (9.1, True)])
def test_the_hop_limit_applies_to_the_expected_cluster_size(monkeypatch, limit, runs):
    # the limit bounds the hops a block draws, MAX_MEAN_HOPS per trial, a chunk
    # of 10 at a time: this block's 10 trials take 84 hops, so 9 chunks (90
    # hops) fit a budget of 91 and not one of 89
    monkeypatch.setattr(mc, "MAX_MEAN_HOPS", limit)
    cfg = SimConfig(EXP, M_EXP, trials=10, seed=10)
    if runs:
        stats = run(cfg)
        assert stats.trials == 10
        assert stats.mean_N == 7.4  # 84 hops, one failed hop per trial
    else:
        with pytest.raises(DegenerateProcessError,
                           match=r"closed \d of 10 trials in 80 hops drawn, its budget of "
                                 r"8\.9 hops per trial"):
            run(cfg)


def test_degenerate_processes_refuse_to_run():
    budget = "closed 0 of 10 trials in 100000 hops drawn, its budget of 10000 hops per trial"
    with pytest.raises(DegenerateProcessError, match=budget):
        run(SimConfig(UniformHeadway(0.0, 10.0), ContentionModel(1.0, 100.0),
                      trials=10, seed=0))
    with pytest.raises(DegenerateProcessError, match=budget):
        run(SimConfig(DeterministicHeadway(0.0), FADE, trials=10, seed=0))
    # q = 1 - e^-20: E[N] ~ 4.9e8 hops per trial would run for days
    with pytest.raises(DegenerateProcessError, match=budget):
        run(SimConfig(EXP, ContentionModel(1.0, 100.0), trials=10, seed=0))


@pytest.mark.parametrize("seed", [10, 27, 28])
def test_a_one_trial_run_has_the_budget_of_a_small_block(seed):
    # E[N] = 5000: one trial takes 1e4 hops or more with chance e^-2, and each
    # of these seeds' trials does; MIN_BUDGET_TRIALS = 6 gives the block 6e4
    model = ContentionModel(5000.0 / 5001.0, 1e9)
    stats = run(SimConfig(EXP, model, trials=1, seed=seed))
    assert stats.trials == 1
    assert mc.MAX_MEAN_HOPS <= stats.mean_N < mc.MAX_MEAN_HOPS * mc.MIN_BUDGET_TRIALS


def test_a_degenerate_one_trial_run_refuses_within_its_budget():
    start = time.monotonic()
    with pytest.raises(DegenerateProcessError,
                       match="closed 0 of 1 trials in 60000 hops drawn, its budget of 10000 "
                             "hops per trial, counted as 6 trials"):
        run(SimConfig(UniformHeadway(0.0, 10.0), ContentionModel(1.0, 100.0), trials=1, seed=0))
    assert time.monotonic() - start < REFUSAL_SECONDS


# A refusal spends one block's whole budget: measured 0.23-0.25 s for 10
# trials in process, 0.8-1.4 s for one, and 1.1-1.7 s for a pooled
# 8192-trial block (2-vCPU x86 host). The bound leaves room for a slow runner.
REFUSAL_SECONDS = 10.0


@needs_fork
@pytest.mark.parametrize("workers", [1, 2])
def test_the_simulator_reads_no_closed_form(monkeypatch, deadline, workers):
    cfgs = [SimConfig(EXP, model, trials=2 * BLOCK_TRIALS, seed=4, ecdf_grid=(1.0, 300.0))
            for model in (M_EXP, FADE)]
    expected = [run(cfg) for cfg in cfgs]

    def closed_form(*args, **kwargs):
        raise AssertionError("the simulator read a closed form")

    for owner in (ChannelModel, ContentionModel):
        monkeypatch.setattr(owner, "hop_law", closed_form)
        monkeypatch.setattr(owner, "hop_kernel", closed_form)
    monkeypatch.setattr(analytic, "hop_failure_prob", closed_form)
    monkeypatch.setattr(mc, "hop_failure_prob", closed_form)
    mc._stop_pools()  # a pool forked from here on carries the patches
    deadline(120.0)
    for cfg, stats in zip(cfgs, expected):
        assert_same_stats(run(cfg, workers=workers), stats)
    # q = 1 under each channel, and q = 1 - e^-20; a pooled run needs two blocks
    trials = 10 if workers == 1 else BLOCK_TRIALS + 1
    for headway, model in ((UniformHeadway(0.0, 10.0), ContentionModel(1.0, 100.0)),
                           (DeterministicHeadway(0.0), FADE),
                           (EXP, ContentionModel(1.0, 100.0))):
        start = time.monotonic()
        with pytest.raises(DegenerateProcessError, match="hops per trial"):
            run(SimConfig(headway, model, trials=trials, seed=0), workers=workers)
        assert time.monotonic() - start < REFUSAL_SECONDS
        with pytest.raises(ChildProcessError):  # no worker of this process is left
            os.waitpid(-1, os.WNOHANG)
