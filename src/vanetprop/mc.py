"""Monte Carlo oracle for the propagation process.

Each trial replays the hop-by-hop process literally: draw a gap tau and
a uniform u, let the model's `hop_succeeds` decide the hop (contention:
tau <= max_range and u < p_s; fading: u < p_s(tau)), accumulate D += tau
and N += 1 on success, stop on the first failure. No closed form enters
the simulator, so it can arbitrate between conflicting analytical variants.

Trials are split into fixed blocks of 8192. A block is one i.i.d. hop
stream cut at its failures: trial k ends at the stream's k-th failed hop,
so trials stay independent. Block b draws its stream from an SFC64
generator seeded by SeedSequence((seed, b)), in chunks of as many hops as
the block has trials. Partial results reduce in block order, so for a
given (seed, trials) the output is bit-identical no matter how many
worker processes run the blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import ContentionModel, hop_failure_prob
from .errors import DegenerateProcessError, ValidationError
from .fading import FadingModel
from .headway import HeadwayDistribution
from .quad import CdfCurve

__all__ = ["SimConfig", "SimStats", "ComparisonReport", "run", "compare"]

BLOCK_TRIALS = 8192
_Z95 = 1.959963984540054  # two-sided 95% normal quantile
# cdf_supnorm passes iff the sup distance between curve and ECDF is below
# cdf_supnorm_gate(trials): this floor, or the DKW band at level
# CDF_SUPNORM_ALPHA where the ECDF's own noise is larger (trials < 38 100)
CDF_SUPNORM_FLOOR = 0.01
CDF_SUPNORM_ALPHA = 1e-3
# Largest E[N] = q/(1-q), in expected hops per trial, that `run` simulates. A
# block's time grows linearly with E[N]: one 8192-trial block took 0.16 s at
# E[N] = 999 and 1.6 s at 9 999 (about 0.16 ms per expected hop; 2-vCPU x86
# host, exponential gaps). At this limit the default 100 000 trials take about
# 20 s on one worker; as q -> 1 a run would take hours to days.
MAX_MEAN_HOPS = 1.0e4

_MAX_SEED = 2 ** 64 - 1


@dataclass(frozen=True)
class SimConfig:
    """What to simulate. ecdf_grid = (grid_step, max_s) requests an ECDF."""

    headway: HeadwayDistribution
    model: ContentionModel | FadingModel
    trials: int
    seed: int
    ecdf_grid: tuple[float, float] | None = None

    def __post_init__(self):
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ValidationError(f"trials must be a positive integer, got {self.trials!r}")
        if not isinstance(self.seed, int) or not (0 <= self.seed <= _MAX_SEED):
            raise ValidationError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        if not isinstance(self.model, (ContentionModel, FadingModel)):
            raise ValidationError(f"model must be ContentionModel or FadingModel, got {self.model!r}")
        if self.ecdf_grid is not None:
            step, max_s = self.ecdf_grid
            if not (isinstance(step, (int, float)) and 0 < step) \
                    or not (isinstance(max_s, (int, float)) and step <= max_s < math.inf):
                raise ValidationError("ecdf_grid must be (step > 0, finite max_s >= step), "
                                      f"got {self.ecdf_grid!r}")


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
    failure go unused.
    """
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, block_index))))
    D = np.empty(n)
    N = np.empty(n, dtype=np.int64)
    # -1, the last hop of each trial closed in a chunk, then n - 1
    bounds = np.empty(n + 2, dtype=np.intp)
    bounds[0] = -1
    done, open_d, open_n = 0, 0.0, 0
    while done < n:
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


def _grid_index(grid: np.ndarray, D: np.ndarray) -> np.ndarray:
    """np.searchsorted(grid, D, side="left") for the uniform grid j * grid[1], D >= 0.

    ceil(D / step) can miss by one either way where rounding puts D on the
    wrong side of a grid point; one compare on each side restores it.
    """
    n = grid.size
    idx = np.minimum(np.ceil(D / grid[1]), n).astype(np.intp)
    idx -= (idx > 0) & (grid[np.maximum(idx - 1, 0)] >= D)
    idx += (idx < n) & (grid[np.minimum(idx, n - 1)] < D)
    return idx


def _run_blocks(cfg, grid, blocks):
    """Per-block sums of D, D^2, D^3, D^4, N, N^2 and of trials with N = 0,
    in block order, and the blocks' ECDF histogram on grid (or None).

    The histogram is one integer sum over the blocks, which no order of
    summation changes, so a group of blocks hands back one, not one per block.
    """
    sums, hist = [], None
    if grid is not None:
        hist = np.zeros(grid.size + 1, dtype=np.int64)
    for b, lo, hi in blocks:
        D, N = _simulate_block(cfg.headway, cfg.model, cfg.seed, b, hi - lo)
        d2 = D * D
        sums.append((float(np.sum(D)), float(np.sum(d2)), float(np.sum(d2 * D)),
                     float(np.sum(d2 * d2)), int(np.sum(N)), int(np.sum(N * N)),
                     int(np.count_nonzero(N == 0))))
        if hist is not None:
            hist += np.bincount(_grid_index(grid, D), minlength=grid.size + 1)
    return sums, hist


_JOB = None  # (cfg, grid) in a pool worker, handed over by the fork


def _set_job(cfg, grid):
    global _JOB
    _JOB = cfg, grid


def _pool_group(blocks):
    return _run_blocks(*_JOB, blocks)


def run(cfg: SimConfig, workers: int = 1) -> SimStats:
    """Simulate cfg.trials independent trials.

    workers > 1 distributes groups of blocks over up to `workers` forked
    worker processes (none where the platform cannot fork, or for a single
    block); the result is bit-identical to the in-process run.

    Raises DegenerateProcessError, before simulating, where no hop can
    fail or E[N] = q/(1-q) exceeds MAX_MEAN_HOPS: such trials would never
    end, or not in useful time.
    """
    if not isinstance(workers, int) or workers < 1:
        raise ValidationError(f"workers must be a positive integer, got {workers!r}")
    fail = hop_failure_prob(cfg.headway, cfg.model)
    if fail <= 0.0:
        raise DegenerateProcessError(
            f"hop failure probability 1 - q = {float(fail)!r}: no hop can fail, so trials "
            "would never terminate")
    if (1.0 - fail) / fail > MAX_MEAN_HOPS:
        raise DegenerateProcessError(
            f"E[N] = {(1.0 - fail) / fail:.4g} expected hops per trial exceeds "
            f"{MAX_MEAN_HOPS:g}: trials would not terminate in useful time")
    grid = None
    if cfg.ecdf_grid is not None:
        step, max_s = cfg.ecdf_grid
        grid = np.arange(int(math.floor(max_s / step + 1e-9)) + 1) * step

    blocks = [(b, lo, min(lo + BLOCK_TRIALS, cfg.trials))
              for b, lo in enumerate(range(0, cfg.trials, BLOCK_TRIALS))]

    workers = min(workers, len(blocks))
    if workers > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers == 1:
        groups = [_run_blocks(cfg, grid, blocks)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        # cfg and grid reach the workers by fork; only blocks and sums are
        # pickled, and one histogram per group of about a quarter of a
        # worker's share of the blocks
        size = math.ceil(len(blocks) / (4 * workers))
        with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                 initializer=_set_job, initargs=(cfg, grid)) as pool:
            groups = list(pool.map(_pool_group, [blocks[i:i + size]
                                                 for i in range(0, len(blocks), size)]))

    # reduce in block order: float sums stay deterministic under any pool size
    s1 = s2 = s3 = s4 = 0.0
    sum_n = sum_n2 = zeros = 0
    for sums, _ in groups:
        for p1, p2, p3, p4, pn, pn2, pz in sums:
            s1 += p1
            s2 += p2
            s3 += p3
            s4 += p4
            sum_n += pn
            sum_n2 += pn2
            zeros += pz
    counts = sum(hist for _, hist in groups)[: grid.size] if grid is not None else None

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
    if grid is not None:
        ecdf = CdfCurve(cfg.ecdf_grid[0], cfg.ecdf_grid[1],
                        np.cumsum(counts) / n)
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
