"""Monte Carlo oracle for the propagation process.

Each trial replays the hop-by-hop process literally: draw a gap tau and
a uniform u, let the model's `hop_succeeds` decide the hop (by default
u < p(tau); contention: tau <= max_range and u < p_s), accumulate D += tau
and N += 1 on success, stop on the first failure. No closed form enters
the simulator, not even its stopping rule (a hop budget per block), so it
can arbitrate between conflicting analytical variants.

Trials are split into fixed blocks of 8192. A block is one i.i.d. hop
stream cut at its failures: trial k ends at the stream's k-th failed hop,
so trials stay independent. Block b draws its stream from an SFC64
generator seeded by SeedSequence((seed, b)), in chunks of as many hops as
the block has trials. Partial results reduce in block order, so for a
given (seed, trials) the output is bit-identical no matter how many
worker processes run the blocks. Workers are bare forks of the caller:
each claims blocks one at a time from a shared pipe of block numbers and
hands back its blocks' sums, keyed by block, and one summed histogram.

The workers live as long as the process. The first pooled run forks
them; a later run with the same worker count sends them its pickled job
instead, so only the first run pays for the fork and for importing
numpy.random in the workers. A pool is reused only while the run's
headway and model classes are vanetprop's own or those it was forked
with; another class, another count or a worker found dead forks a new
one, and so does a job a worker cannot load. A library class
monkeypatched after the fork is not seen by the workers. A worker holds
none of the caller's descriptors, only its image of the caller's memory
at the fork. A run that fails, meets a dead worker or is interrupted
kills its pool, and the process's exit kills whatever pool is left.
"""

from __future__ import annotations

import atexit
import math
import os
import pickle
from dataclasses import dataclass

import numpy as np

from .analytic import ChannelModel
# no caller here: bench/tracer.py patches this name (ROADMAP item 8)
from .analytic import hop_failure_prob
from .errors import DegenerateProcessError, ValidationError, _check_real
from .headway import HeadwayDistribution
from .quad import CdfCurve, _grid_points

__all__ = ["SimConfig", "SimStats", "ComparisonReport", "run", "compare"]

BLOCK_TRIALS = 8192
_Z95 = 1.959963984540054  # two-sided 95% normal quantile
# cdf_supnorm passes iff the sup distance between curve and ECDF is below
# cdf_supnorm_gate(trials): this floor, or the DKW band at level
# CDF_SUPNORM_ALPHA where the ECDF's own noise is larger (trials < 38 100)
CDF_SUPNORM_FLOOR = 0.01
CDF_SUPNORM_ALPHA = 1e-3
# A block's hop budget, in hops per trial of the block, spent a chunk at a
# time; a block that would draw more raises DegenerateProcessError. A block's
# time grows with its hops: one 8192-trial block took 0.16 s at E[N] = 999 and
# 1.6 s at 9 999, and spends its budget in 1.1-1.7 s (2-vCPU x86 host), where
# as q -> 1 a run would take hours to days. No canonical run comes near it.
MAX_MEAN_HOPS = 1.0e4


@dataclass(frozen=True)
class SimConfig:
    """What to simulate. ecdf_grid = (grid_step, max_s) requests an ECDF."""

    headway: HeadwayDistribution
    model: ChannelModel
    trials: int
    seed: int
    ecdf_grid: tuple[float, float] | None = None

    def __post_init__(self):
        if not isinstance(self.headway, HeadwayDistribution):
            raise ValidationError(f"headway must be a HeadwayDistribution, got {self.headway!r}")
        if not isinstance(self.model, ChannelModel):
            raise ValidationError(f"model must be a ChannelModel, got {self.model!r}")
        _check_real("trials", self.trials, 1, integer=True)
        _check_real("seed", self.seed, 0, 2 ** 64 - 1, integer=True)
        if self.ecdf_grid is not None:
            try:
                grid_step, max_s = self.ecdf_grid
            except (TypeError, ValueError):
                raise ValidationError("ecdf_grid must be a (grid_step, max_s) pair, "
                                      f"got {self.ecdf_grid!r}") from None
            _grid_points(grid_step, max_s)


@dataclass(frozen=True)
class SimStats:
    """Sample statistics over all trials.

    var_D and its CI are None when trials < 2 (variance undefined, never
    reported as zero). ci95_* are normal-approximation half-widths; the
    variance CI uses the asymptotic variance (m4 - m2^2)/n.
    """

    trials: int
    mean_D: float
    var_D: float | None
    mean_N: float
    ci95_mean_D: float
    ci95_var_D: float | None
    ci95_mean_N: float
    zero_fraction: float
    ecdf: CdfCurve | None


def cdf_supnorm_gate(trials: int) -> float:
    """Largest sup distance that cdf_supnorm passes for an ECDF of `trials` trials.

    By the Dvoretzky-Kiefer-Wolfowitz inequality a correct curve lies
    farther than sqrt(ln(2/alpha) / (2 n)) from the ECDF with probability
    at most alpha, so the gate is never tighter than that band.
    """
    return max(CDF_SUPNORM_FLOOR,
               math.sqrt(math.log(2.0 / CDF_SUPNORM_ALPHA) / (2.0 * trials)))


def _simulate_block(headway: HeadwayDistribution, model, seed: int,
                    block_index: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial (D, N) for one block, from the block's own SFC64 stream.

    The block is one stream of i.i.d. hops, drawn in chunks of n: one gap
    array, then one uniform array. Trial k is the run of hops that ends at
    the stream's k-th failure; a trial still open at the end of a chunk
    carries its partial D and N into the next one, and hops past the n-th
    failure go unused. A chunk that would take the hops drawn past
    MAX_MEAN_HOPS * n raises DegenerateProcessError instead.
    """
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, block_index))))
    D = np.empty(n)
    N = np.empty(n, dtype=np.int64)
    # -1, the last hop of each trial closed in a chunk, then n - 1
    bounds = np.empty(n + 2, dtype=np.intp)
    bounds[0] = -1
    done, open_d, open_n, drawn = 0, 0.0, 0, 0
    while done < n:
        if drawn + n > MAX_MEAN_HOPS * n:
            raise DegenerateProcessError(
                f"block {block_index} closed {done} of {n} trials in {drawn} hops drawn, "
                f"its budget of {MAX_MEAN_HOPS:g} hops per trial: trials would not "
                "terminate in useful time")
        drawn += n
        tau = headway.sample(rng, size=n)  # a fresh array, ours to overwrite
        ends = np.flatnonzero(~model.hop_succeeds(tau, rng.random(n)))[: n - done]
        k = ends.size
        b = bounds[: k + 2]
        b[1:k + 1] = ends
        b[k + 1] = n - 1
        # hops per trial: k closed ones, their failed hop included, then the
        # open one (once the block's last trial closes, the hops left over)
        counts = b[1:] - b[:-1]
        tau[ends] = 0.0  # a failed hop adds no distance
        # the open trial's partial sum comes first, so every D is the
        # left-to-right sum of its accepted gaps
        tau[0] += open_d
        d = np.bincount(np.repeat(np.arange(k + 1), counts), weights=tau, minlength=k + 1)
        counts[0] += open_n
        D[done:done + k] = d[:k]
        N[done:done + k] = counts[:k] - 1
        open_d, open_n = float(d[k]), int(counts[k])
        done += k
    return D, N


def _grid_index(step: float, n: int, D: np.ndarray) -> np.ndarray:
    """np.searchsorted(grid, D, side="left") for the n-point grid j * step, D >= 0.

    ceil(D / step) can miss by one either way where rounding puts D on the
    wrong side of a grid point; one compare on each side restores it. Each
    grid point compared is computed from its index, the bits of
    CdfCurve.grid(), so no grid array is built.
    """
    idx = np.minimum(np.ceil(D / step), n).astype(np.intp)
    idx -= (idx > 0) & (np.maximum(idx - 1, 0) * step >= D)
    idx += (idx < n) & (np.minimum(idx, n - 1) * step < D)
    return idx


def _run_blocks(cfg, size, blocks):
    """(block, sums) pairs for the block numbers in `blocks`, in the order
    run, and the blocks' ECDF histogram on the size-point grid of
    cfg.ecdf_grid (or None, where size is None). A block's sums are those
    of D, D^2, D^3, D^4, N, N^2 and of trials with N = 0.

    The histogram is one integer sum over the blocks, which no order of
    summation changes, so a worker hands back one, not one per block.
    The pairs are a list, not a dict: a dict's table, reallocated as it
    grows between the blocks' large arrays, raised the peak RSS of a fine
    in-process ECDF run by about 0.3 MiB.
    """
    sums, hist = [], None
    if size is not None:
        hist = np.zeros(size + 1, dtype=np.int64)
    for b in blocks:
        n = min(BLOCK_TRIALS, cfg.trials - b * BLOCK_TRIALS)
        D, N = _simulate_block(cfg.headway, cfg.model, cfg.seed, b, n)
        d2 = D * D
        sums.append((b, (float(np.sum(D)), float(np.sum(d2)), float(np.sum(d2 * D)),
                         float(np.sum(d2 * d2)), int(np.sum(N)), int(np.sum(N * N)),
                         int(np.count_nonzero(N == 0)))))
        if hist is not None:
            hist += np.bincount(_grid_index(cfg.ecdf_grid[0], size, D), minlength=size + 1)
    return sums, hist


_END = 0xFFFFFFFF  # the ticket that ends a worker's share of a run
# signal.SIGKILL on every POSIX system; importing signal to end a pool at
# exit would add about 1.5 ms to a one-shot pooled simulate
_SIGKILL = 9


def _claimed_blocks(tickets: int):
    """Block numbers read from the ticket pipe, 4 bytes each, up to the
    end ticket (or EOF, once the caller is gone).

    The pipe holds whole tickets only, and a pipe read of at most 4 bytes
    is atomic, so workers reading at once never split one; a short read is
    retried all the same.
    """
    ticket = b""
    while chunk := os.read(tickets, 4 - len(ticket)):
        ticket += chunk
        if len(ticket) == 4:
            block = int.from_bytes(ticket, "little")
            if block == _END:
                return
            yield block
            ticket = b""


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _serve(cfg, size, tickets: int, jobs: int, out: int):
    """Body of a pool worker; never returns.

    Runs the job (cfg, size) it has by the fork, then each job it reads
    from its job pipe, until EOF there. For each, it runs the blocks it
    claims and writes the pickled (pairs, hist), or the exception that
    stopped it, to `out`. A job it cannot load, one naming a class bound
    after the fork, it answers with None, and exits.

    It first closes every descriptor but 0-2 and its own three: one of the
    caller's held open here would keep a pipe or socket the caller closes
    from reaching EOF. Once it has handed back its first result it ignores
    SIGINT, so a Ctrl-C at the terminal ends only the caller, whose
    interrupted run kills its pool.
    """
    status = 1
    try:
        low = 3
        for fd in sorted((tickets, jobs, out)):
            os.closerange(low, fd)
            low = max(low, fd + 1)
        os.closerange(low, os.sysconf("SC_OPEN_MAX"))
        with open(jobs, "rb") as job_pipe:
            while True:
                try:
                    result = _run_blocks(cfg, size, _claimed_blocks(tickets))
                except Exception as exc:  # handed to the parent, which raises it
                    result = exc
                _write_all(out, pickle.dumps(result))
                import signal  # here, not on the way to the first run's result

                signal.signal(signal.SIGINT, signal.SIG_IGN)
                try:
                    cfg, size = pickle.load(job_pipe)
                except EOFError:  # the pool was closed
                    break
                except Exception:  # the caller forks a pool that has the job
                    _write_all(out, pickle.dumps(None))
                    break
        status = 0
    finally:
        os._exit(status)


class _StaleJob(Exception):
    """The pool cannot be sent the job, or a worker cannot load it."""


class _Pool:
    """Forked workers that outlive the run that forked them.

    `workers` maps each worker's pid to the write end of its job pipe and
    the read end of its result pipe; all of them claim blocks from one
    ticket pipe, written through `feed`. `classes` are the headway and
    model classes of the run that forked the pool: the only ones, with
    vanetprop's own, that the workers surely share with the caller.
    """

    def __init__(self, cfg, size, workers: int):
        self.classes = (type(cfg.headway), type(cfg.model))
        self.workers: dict[int, tuple[int, int]] = {}
        tickets, self.feed = os.pipe()
        try:
            for _ in range(workers):
                job_r, job_w = os.pipe()
                res_r, res_w = os.pipe()
                try:
                    pid = os.fork()
                except BaseException:
                    for fd in (job_r, job_w, res_r, res_w):
                        os.close(fd)
                    raise
                if pid == 0:
                    _serve(cfg, size, tickets, job_r, res_w)
                os.close(job_r)
                os.close(res_w)
                self.workers[pid] = (job_w, res_r)
        except BaseException:
            self.kill()
            raise
        finally:
            os.close(tickets)

    def fits(self, cfg, workers: int) -> bool:
        """Whether this pool can run cfg: it has `workers` workers, all
        alive (one that has exited is reaped here), and they hold the
        code of cfg's classes."""
        return (len(self.workers) == workers
                and all(c in self.classes or c.__module__.startswith("vanetprop.")
                        for c in (type(cfg.headway), type(cfg.model)))
                and all(self._reap(pid, os.WNOHANG) is None for pid in list(self.workers)))

    def _reap(self, pid: int, options: int = 0) -> int | None:
        """The worker's exit code, once it has exited and is reaped (then it
        leaves the pool); None while it runs."""
        done, status = os.waitpid(pid, options)
        if not done:
            return None
        for fd in self.workers.pop(pid):
            os.close(fd)
        return os.waitstatus_to_exitcode(status)

    def send(self, cfg, size) -> None:
        """Hand every worker the pickled (cfg, size) of the next run; raise
        _StaleJob where it cannot be pickled (a class defined in a function)."""
        try:
            job = pickle.dumps((cfg, size))
        except (pickle.PicklingError, AttributeError, TypeError):
            raise _StaleJob from None
        try:
            for job_w, _ in self.workers.values():
                _write_all(job_w, job)
        except BrokenPipeError:
            pass  # a worker has exited; collecting the results says why

    def run(self, n_blocks: int) -> list:
        """(pairs, hist) of each worker, which between them run every block
        of the job they hold once (see _run_blocks).

        The workers claim blocks one at a time from a shared pipe of 4-byte
        tickets, so the one that started first or runs faster takes more
        of them; one end ticket per worker follows the block numbers.
        """
        tickets = np.full(n_blocks + len(self.workers), _END, dtype="<u4")
        tickets[:n_blocks] = np.arange(n_blocks)
        try:
            _write_all(self.feed, tickets.tobytes())
        except BrokenPipeError:
            pass  # every worker has exited; collecting the results says why
        parts = []
        for pid, (_, res_r) in list(self.workers.items()):
            try:
                with open(res_r, "rb", closefd=False) as results:
                    part = pickle.load(results)  # written by our own worker
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"simulation worker {pid} exited with status "
                                   f"{self._reap(pid)} without a result") from None
            if part is None:
                raise _StaleJob
            if isinstance(part, Exception):
                raise part
            parts.append(part)
        return parts

    def close(self) -> None:
        """Close this process's ends of the pool's pipes."""
        os.close(self.feed)
        for pipes in self.workers.values():
            for fd in pipes:
                os.close(fd)
        self.workers.clear()

    def kill(self) -> None:
        """Kill and reap every worker, then close the pipes."""
        for pid in self.workers:
            os.kill(pid, _SIGKILL)
        for pid in self.workers:
            os.waitpid(pid, 0)
        self.close()


# pools no run holds: one per process, unless runs in several threads
# overlapped. A list, whose append and pop are atomic across threads.
_idle: list[_Pool] = []


def _run_pooled(cfg, size, n_blocks: int, workers: int) -> list:
    """(pairs, hist) of each of `workers` pool workers (see _Pool.run).

    Reuses an idle pool that fits cfg, sending it the pickled job;
    otherwise, or where the job cannot be pickled or a worker cannot load
    it, kills it and forks a new pool, which gets cfg by the fork. A run
    that raises or is interrupted kills its pool.
    """
    try:
        pool = _idle.pop()
    except IndexError:
        pool = None
    if pool is not None and not pool.fits(cfg, workers):
        pool.kill()
        pool = None
    try:
        if pool is None:
            pool = _Pool(cfg, size, workers)
        else:
            pool.send(cfg, size)
        parts = pool.run(n_blocks)
    except _StaleJob:  # a new pool gets cfg by the fork
        pool.kill()
        return _run_pooled(cfg, size, n_blocks, workers)
    except BaseException:
        if pool is not None:
            pool.kill()
        raise
    _idle.append(pool)
    return parts


def _stop_pools() -> None:
    """Kill and reap every idle pool; the next pooled run forks a new one."""
    while _idle:
        _idle.pop().kill()


def _drop_pools() -> None:
    """In a forked child: forget the parent's pools, whose workers are not its own."""
    while _idle:
        _idle.pop().close()


atexit.register(_stop_pools)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pools)


def run(cfg: SimConfig, workers: int = 1) -> SimStats:
    """Simulate cfg.trials independent trials.

    workers > 1 runs the blocks in up to `workers` forked worker processes
    that claim them one at a time (none where the platform cannot fork, or
    for a single block); the result is bit-identical to the in-process run.
    The workers stay up for the next run (see the module docstring).

    With cfg.ecdf_grid, each block's D is binned on the grid (`_grid_index`)
    into one integer histogram per worker. The histograms are summed in
    place, and one float cumsum over the trials gives the ECDF values; the
    run holds no grid array.

    Raises DegenerateProcessError where a block spends its hop budget
    (see _simulate_block) before its trials close: as q -> 1 they would
    not end, or not in useful time.
    """
    _check_real("workers", workers, 1, integer=True)
    size = None  # grid points of the ECDF
    if cfg.ecdf_grid is not None:
        size = _grid_points(*cfg.ecdf_grid)

    n_blocks = -(-cfg.trials // BLOCK_TRIALS)
    workers = min(workers, n_blocks)
    if workers > 1 and hasattr(os, "fork"):
        parts = _run_pooled(cfg, size, n_blocks, workers)
    else:
        parts = [_run_blocks(cfg, size, range(n_blocks))]

    # reduce in block order: float sums stay deterministic under any pool size
    s1 = s2 = s3 = s4 = 0.0
    sum_n = sum_n2 = zeros = 0
    sums = dict(pair for part, _ in parts for pair in part)
    for b in range(n_blocks):
        p1, p2, p3, p4, pn, pn2, pz = sums[b]
        s1 += p1
        s2 += p2
        s3 += p3
        s4 += p4
        sum_n += pn
        sum_n2 += pn2
        zeros += pz

    n = cfg.trials
    mean = s1 / n
    mean_n = sum_n / n
    if n >= 2:
        m2 = max(s2 / n - mean * mean, 0.0)
        var = m2 * n / (n - 1)
        m4 = s4 / n - 4.0 * mean * s3 / n + 6.0 * mean * mean * s2 / n - 3.0 * mean ** 4
        ci_var = _Z95 * math.sqrt(max(m4 - m2 * m2, 0.0) / n)
        ci_mean = _Z95 * math.sqrt(var / n)
        mn2 = max(sum_n2 / n - mean_n * mean_n, 0.0)
        ci_mean_n = _Z95 * math.sqrt(mn2 * n / (n - 1) / n)
    else:
        var = None
        ci_var = None
        ci_mean = math.inf
        ci_mean_n = math.inf

    ecdf = None
    if size is not None:
        counts = parts[0][1]  # each part's histogram is its own array
        for _, hist in parts[1:]:
            counts += hist
        # counts stay below 2^53, so a float cumsum is exact
        values = np.cumsum(counts[:size], dtype=np.float64)
        values /= n
        ecdf = CdfCurve(*cfg.ecdf_grid, values)
    return SimStats(
        trials=n,
        mean_D=mean,
        var_D=var,
        mean_N=mean_n,
        ci95_mean_D=ci_mean,
        ci95_var_D=ci_var,
        ci95_mean_N=ci_mean_n,
        zero_fraction=zeros / n,
        ecdf=ecdf,
    )


@dataclass(frozen=True)
class ComparisonReport:
    """One analytic-vs-simulation check.

    Scalar metrics pass iff |analytic - simulated| <= 4 * ci95 (the CI
    half-width); cdf_supnorm passes iff the sup distance on the shared
    grid is below cdf_supnorm_gate(trials).
    """

    metric: str
    analytic: float | None
    simulated: float | None
    ci95: float | None
    abs_error: float
    rel_error: float | None
    passed: bool


def compare(analytic_value, sim: SimStats, metric: str) -> ComparisonReport:
    """Check one analytic value against the simulation.

    metric: mean_D | var_D | mean_N | cdf_supnorm. For cdf_supnorm,
    analytic_value is a CdfCurve and sim must carry an ECDF on the same
    grid.
    """
    if sim.trials < 2:
        raise ValidationError("comparison needs at least 2 trials")
    if metric == "cdf_supnorm":
        if not isinstance(analytic_value, CdfCurve):
            raise ValidationError("cdf_supnorm comparison needs a CdfCurve")
        if sim.ecdf is None:
            raise ValidationError("simulation carries no ECDF; set ecdf_grid")
        same = (
            sim.ecdf.values.size == analytic_value.values.size
            and abs(sim.ecdf.grid_step - analytic_value.grid_step) <= 1e-12
        )
        if not same:
            raise ValidationError(
                f"grid mismatch: analytic {analytic_value!r} vs ecdf {sim.ecdf!r}"
            )
        sup = float(np.max(np.abs(analytic_value.values - sim.ecdf.values)))
        return ComparisonReport(
            metric=metric,
            analytic=None,
            simulated=None,
            ci95=None,
            abs_error=sup,
            rel_error=None,
            passed=sup < cdf_supnorm_gate(sim.trials),
        )

    if metric == "mean_D":
        sim_value, ci = sim.mean_D, sim.ci95_mean_D
    elif metric == "var_D":
        if sim.var_D is None:
            raise ValidationError("simulation variance is undefined (trials < 2)")
        sim_value, ci = sim.var_D, sim.ci95_var_D
    elif metric == "mean_N":
        sim_value, ci = sim.mean_N, sim.ci95_mean_N
    else:
        raise ValidationError(f"unknown comparison metric {metric!r}")
    a = float(analytic_value)
    abs_err = abs(a - sim_value)
    if a != 0.0:
        rel_err = abs_err / abs(a)
    else:
        rel_err = 0.0 if abs_err == 0.0 else math.inf
    return ComparisonReport(
        metric=metric,
        analytic=a,
        simulated=sim_value,
        ci95=ci,
        abs_error=abs_err,
        rel_error=rel_err,
        passed=abs_err <= 4.0 * ci,
    )
