"""Replication-level output analysis.

Confidence-interval half widths at a stated confidence level, the
specified-precision sequential replication method, paired comparisons of
two configurations with or without common random numbers, and the
half-width-by-replication-level table comparing default-stream and
dedicated-stream models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import betaincinv

from .errors import ComparisonError, ConfigurationError, InsufficientDataError
from .model import (
    DECISION_FIELDS,
    ModelConfig,
    run_batch,
    run_replications,
    worker_pool,
)
from .rng import derive_master_seed

_INDEPENDENT_ARM_TAG = 0x1D9D  # key-space tag for the no-CRN comparison arm


def t_quantile(df: int, p: float) -> float:
    """Student-t inverse CDF via the inverse regularized incomplete beta.

    Accurate to better than 1e-6 absolute for df up to 10,000.
    """
    if df < 1:
        raise ConfigurationError("degrees of freedom must be >= 1")
    if not 0.0 < p < 1.0:
        raise ConfigurationError("p must be in (0, 1)")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -t_quantile(df, 1.0 - p)
    x = float(betaincinv(0.5 * df, 0.5, 2.0 * (1.0 - p)))
    return math.sqrt(df * (1.0 - x) / x)


@dataclass(frozen=True)
class SummaryStats:
    n: int
    mean: float
    sd: float  # sample standard deviation, n-1 divisor
    confidence: float
    half_width: float


def summarize(values, confidence: float = 0.95) -> SummaryStats:
    """Mean, sample sd and confidence half width of a replication batch."""
    values = list(values)
    n = len(values)
    if n < 2:
        raise InsufficientDataError(f"need at least 2 values, got {n}")
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError("confidence must be in (0, 1)")
    # deviations from the first value, so that identical values give a
    # mean equal to them and an sd of exactly 0
    first = values[0]
    shifts = [v - first for v in values]
    shift = math.fsum(shifts) / n
    mean = first + shift
    sd = math.sqrt(math.fsum((d - shift) ** 2 for d in shifts) / (n - 1))
    if sd == 0.0:
        hw = 0.0
    else:
        hw = t_quantile(n - 1, 1.0 - (1.0 - confidence) / 2.0) * sd / math.sqrt(n)
    return SummaryStats(n=n, mean=mean, sd=sd, confidence=confidence, half_width=hw)


@dataclass(frozen=True)
class PrecisionResult:
    target_half_width: float
    achieved: bool
    n_used: int
    final: SummaryStats


def replicate_to_precision(config: ModelConfig, seed: int, confidence: float,
                           target_half_width: float, n0: int, n_max: int,
                           threads: int = 1) -> PrecisionResult:
    """Grow the replication count until the half width meets the target.

    Starts at n0 and projects the next count as n * (half_width/target)^2,
    capped at n_max. Replication i always uses replication index i, so the
    result does not depend on the growth path and already-run replications
    are reused.
    """
    if n0 < 2:
        raise ConfigurationError("n0 must be >= 2")
    if n_max < n0:
        raise ConfigurationError("n_max must be >= n0")
    if not target_half_width > 0:  # False for nan too
        raise ConfigurationError("target half width must be > 0")

    costs: list[float] = []
    n = n0
    with worker_pool(threads) as pool:
        while True:
            new = run_replications(config, seed, range(len(costs), n),
                                   threads=threads, executor=pool)
            costs.extend(out.total_usage_cost for out in new)
            stats = summarize(costs, confidence)
            if stats.half_width <= target_half_width or n >= n_max:
                break
            n = min(n_max, math.ceil(n * (stats.half_width / target_half_width) ** 2))
    return PrecisionResult(
        target_half_width=target_half_width,
        achieved=stats.half_width <= target_half_width,
        n_used=n,
        final=stats,
    )


@dataclass(frozen=True)
class PairedResult:
    n: int
    mean_diff: float
    var_a: float
    var_b: float
    var_diff: float
    covariance: float
    half_width_diff: float
    crn: bool


def check_comparable(config_a: ModelConfig, config_b: ModelConfig) -> None:
    """Reject config pairs differing in anything but decision fields."""
    a = config_a.to_dict()
    b = config_b.to_dict()
    confounded = [
        field for field in a
        if field not in DECISION_FIELDS and a[field] != b[field]
    ]
    if confounded:
        raise ComparisonError(
            "configs differ in non-decision fields, comparison would be "
            f"confounded: {confounded}"
        )


def paired_comparisons(config_a: ModelConfig, config_b: ModelConfig, n: int,
                       crn_modes, seed: int, confidence: float = 0.95,
                       threads: int = 1) -> list[PairedResult]:
    """Compare two configurations replication-by-replication, once for each
    of `crn_modes`.

    With crn, replication i of both configs uses identical stream keys;
    without, config B runs in a disjoint seed-derived key space. Config A
    runs once, shared by every mode, in one batch with B's runs.
    """
    if n < 2:
        raise ConfigurationError("n must be >= 2")
    check_comparable(config_a, config_b)
    seeds_b = [seed if crn else derive_master_seed(seed, _INDEPENDENT_ARM_TAG)
               for crn in crn_modes]
    outs = run_batch([(config_a, seed, i, None) for i in range(n)]
                     + [(config_b, seed_b, i, None) for seed_b in seeds_b for i in range(n)],
                     threads)
    costs_a, *costs_b_by_mode = ([o.total_usage_cost for o in outs[k:k + n]]
                                 for k in range(0, len(outs), n))
    stats_a = summarize(costs_a, confidence)
    results = []
    for crn, costs_b in zip(crn_modes, costs_b_by_mode):
        stats_b = summarize(costs_b, confidence)
        stats_diff = summarize([a - b for a, b in zip(costs_a, costs_b)], confidence)
        cov = math.fsum(
            (a - stats_a.mean) * (b - stats_b.mean) for a, b in zip(costs_a, costs_b)
        ) / (n - 1)
        results.append(PairedResult(
            n=n, mean_diff=stats_a.mean - stats_b.mean, var_a=stats_a.sd ** 2,
            var_b=stats_b.sd ** 2, var_diff=stats_diff.sd ** 2, covariance=cov,
            half_width_diff=stats_diff.half_width, crn=crn))
    return results


def paired_comparison(config_a: ModelConfig, config_b: ModelConfig, n: int,
                      crn: bool, seed: int, confidence: float = 0.95,
                      threads: int = 1) -> PairedResult:
    """`paired_comparisons` in one mode."""
    return paired_comparisons(config_a, config_b, n, (crn,), seed, confidence, threads)[0]


@dataclass(frozen=True)
class HalfwidthRow:
    replications: int
    halfwidth_default_stream: float
    halfwidth_crn: float
    difference: float


@dataclass(frozen=True)
class HalfwidthTable:
    """Half widths of Total Usage Cost by replication level for the
    default-stream and dedicated-streams models.

    first_minus_last_halfwidth_* is the first-level minus last-level half
    width per model; sum_of_level_differences sums the per-level differences.
    """

    rows: tuple
    first_minus_last_halfwidth_default_stream: float
    first_minus_last_halfwidth_crn: float
    sum_of_level_differences: float
    confidence: float


def halfwidth_table(config_default_stream: ModelConfig,
                    config_dedicated: ModelConfig, levels,
                    confidence: float = 0.95, seed: int = 12345,
                    threads: int = 1) -> HalfwidthTable:
    """Compare half-width decay over replication levels between the
    default-stream model and the dedicated-streams model.

    Replication i of each model is computed once and shared by every
    level containing it (levels are nested prefixes by construction).
    """
    levels = list(levels)
    if not levels:
        raise ConfigurationError("levels must be non-empty")
    if any(lv < 2 for lv in levels):
        raise ConfigurationError("every level must be >= 2")
    if levels != sorted(levels) or len(set(levels)) != len(levels):
        raise ConfigurationError("levels must be strictly ascending")

    top = levels[-1]
    outs = run_batch([(config_default_stream, seed, i, None) for i in range(top)]
                     + [(config_dedicated, seed, i, None) for i in range(top)], threads)
    costs = {"default": [o.total_usage_cost for o in outs[:top]],
             "crn": [o.total_usage_cost for o in outs[top:]]}

    rows = []
    for lv in levels:
        hw_default = summarize(costs["default"][:lv], confidence).half_width
        hw_crn = summarize(costs["crn"][:lv], confidence).half_width
        rows.append(HalfwidthRow(lv, hw_default, hw_crn, hw_default - hw_crn))

    return HalfwidthTable(
        rows=tuple(rows),
        first_minus_last_halfwidth_default_stream=(
            rows[0].halfwidth_default_stream - rows[-1].halfwidth_default_stream
        ),
        first_minus_last_halfwidth_crn=rows[0].halfwidth_crn - rows[-1].halfwidth_crn,
        sum_of_level_differences=math.fsum(r.difference for r in rows),
        confidence=confidence,
    )
