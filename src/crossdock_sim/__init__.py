"""Crossdock order-picking simulation toolkit.

Discrete-event model of a two-point crossdock order-picking operation,
common-random-numbers stream discipline, replication output analysis,
and budgeted optimization of integer resource counts.
"""

__version__ = "0.1.0"

from .analysis import (
    HalfwidthTable,
    PairedResult,
    PrecisionResult,
    SummaryStats,
    halfwidth_table,
    paired_comparisons,
    replicate_to_precision,
    summarize,
    t_quantile,
)
from .errors import (
    ComparisonError,
    ConfigurationError,
    InsufficientDataError,
    SimulationLogicError,
)
from .model import (
    CostRates,
    ModelConfig,
    ReplicationOutput,
    ResourceLayout,
    build_model,
    run_replication,
    run_replications,
    total_usage_cost,
)
from .optimizer import (
    Bounds,
    DecisionPoint,
    OptimizationProblem,
    OptimizationTrace,
    brute_force_optimum,
    neighbors,
    optimize,
)
from .rng import (
    RandomStream,
    stream_create,
)
