"""Analytical and Monte Carlo toolkit for multi-hop message propagation
distance along a 1-D vehicle chain."""

__version__ = "0.1.0"

from .analytic import (
    ContentionModel,
    DistanceStats,
    cdf,
    distance_stats,
    mean_cluster_size,
    mean_distance,
    mean_distance_bounds,
    solve_printed_cdf,
    solve_renewal_cdf,
    variance_bounds,
    variance_paper,
    variance_renewal,
)
from .errors import (
    DegenerateProcessError,
    NumericError,
    UnsupportedOrderError,
    ValidationError,
)
from .fading import (
    FadingModel,
    FadingStats,
    fading_stats,
    hop_failure_prob,
    mean_distance_fading,
    success_prob,
    variance_fading_paper,
    variance_fading_renewal,
)
from .headway import (
    DeterministicHeadway,
    EmpiricalHeadway,
    ExponentialHeadway,
    HeadwayDistribution,
    LognormalHeadway,
    UniformHeadway,
    load_headway_file,
)
from .mc import ComparisonReport, SimConfig, SimStats, compare, run
from .quad import (
    CdfCurve,
    QuadResult,
    integrate,
    integrate_semi_infinite,
)

__all__ = [
    "__version__",
    "ContentionModel", "DistanceStats", "cdf", "distance_stats",
    "mean_cluster_size", "mean_distance", "mean_distance_bounds",
    "variance_bounds", "variance_paper", "variance_renewal",
    "DegenerateProcessError", "NumericError", "UnsupportedOrderError",
    "ValidationError",
    "FadingModel", "FadingStats", "fading_stats", "hop_failure_prob",
    "mean_distance_fading", "success_prob", "variance_fading_paper",
    "variance_fading_renewal",
    "DeterministicHeadway", "EmpiricalHeadway", "ExponentialHeadway",
    "HeadwayDistribution", "LognormalHeadway", "UniformHeadway",
    "load_headway_file",
    "ComparisonReport", "SimConfig", "SimStats", "compare", "run",
    "CdfCurve", "QuadResult", "integrate", "integrate_semi_infinite",
    "solve_printed_cdf", "solve_renewal_cdf",
]
