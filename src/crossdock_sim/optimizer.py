"""Budgeted minimization of expected Total Usage Cost over integer
resource totals.

The search is best-improvement descent over unit moves with tabu memory
(a point is never evaluated twice) and uniform random restarts, under a
hard budget of objective evaluations. With common random numbers every
candidate is evaluated under identical stream keys, so the objective is
a deterministic function of the point; without, each candidate gets its
own seed-derived key space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .analysis import summarize
from .errors import ConfigurationError
from .model import ModelConfig, ResourceLayout, run_batch, run_replications, worker_pool
from .rng import derive_master_seed

_RESTART_TAG = 0x5EED
_POINT_SEED_TAG = 0xCAFE


class DecisionPoint(NamedTuple):
    dispensers: int
    operatives: int


@dataclass(frozen=True)
class Bounds:
    dispenser_max: int
    operative_max: int

    def contains(self, point: DecisionPoint) -> bool:
        return (1 <= point.dispensers <= self.dispenser_max
                and 1 <= point.operatives <= self.operative_max)

    def all_points(self) -> list:
        return [
            DecisionPoint(d, o)
            for d in range(1, self.dispenser_max + 1)
            for o in range(1, self.operative_max + 1)
        ]


@dataclass(frozen=True)
class OptimizationProblem:
    base_config: ModelConfig
    bounds: Bounds
    reps_per_eval: int
    budget: int
    crn: bool
    seed: int
    threads: int = 1

    def validate(self) -> None:
        if self.budget < 1:
            raise ConfigurationError("budget must be >= 1")
        if self.reps_per_eval < 2:
            raise ConfigurationError("reps_per_eval must be >= 2")
        if self.bounds.dispenser_max < 1 or self.bounds.operative_max < 1:
            raise ConfigurationError("bounds must allow at least one point")


class Evaluation(NamedTuple):
    index: int  # 1-based order of first evaluation
    point: DecisionPoint
    mean_cost: float
    half_width: float


@dataclass(frozen=True)
class OptimizationTrace:
    evaluations: tuple  # unique Evaluations in evaluation order
    incumbent: tuple  # best mean cost after each evaluation
    best_point: DecisionPoint
    best_value: float
    best_found_at: int  # 1-based evaluation index

    def summary_dict(self, problem: OptimizationProblem) -> dict:
        return {
            "best_point": self.best_point._asdict(),
            "best_value": self.best_value,
            "best_found_at": self.best_found_at,
            "evaluations_used": len(self.evaluations),
            "crn": problem.crn,
            "reps_per_eval": problem.reps_per_eval,
            "seed": problem.seed,
        }


class Evaluator:
    """Caching objective evaluator; cache hits never consume budget.

    Replications run on `executor`, a worker pool that the caller keeps
    open across evaluations; without one, each call at `problem.threads`
    > 1 starts a pool of its own.
    """

    def __init__(self, problem: OptimizationProblem, executor=None):
        problem.validate()
        self.problem = problem
        self.config = problem.base_config.with_crn_mode(
            "dedicated_streams" if problem.crn else "default_stream")
        self.executor = executor
        self.cache: dict[DecisionPoint, tuple[float, float]] = {}
        self.evaluations: list[Evaluation] = []

    def evaluated(self, point: DecisionPoint) -> bool:
        return point in self.cache

    def _work(self, point: DecisionPoint) -> tuple:
        """Master seed and layout of the replications at `point`."""
        problem = self.problem
        if not problem.bounds.contains(point):
            raise ConfigurationError(f"point {point} outside bounds {problem.bounds}")
        if problem.crn:
            seed = problem.seed
        else:
            seed = derive_master_seed(
                problem.seed, _POINT_SEED_TAG, point.dispensers, point.operatives
            )
        return seed, ResourceLayout.from_totals(point.dispensers, point.operatives)

    def _record(self, point: DecisionPoint, outs: list) -> tuple[float, float]:
        stats = summarize([o.total_usage_cost for o in outs])
        result = (stats.mean, stats.half_width)
        self.cache[point] = result
        self.evaluations.append(
            Evaluation(len(self.evaluations) + 1, point, stats.mean, stats.half_width)
        )
        return result

    def evaluate(self, point: DecisionPoint) -> tuple[float, float]:
        seed, layout = self._work(point)
        hit = self.cache.get(point)
        if hit is not None:
            return hit
        outs = run_replications(self.config, seed, range(self.problem.reps_per_eval),
                                layout=layout, threads=self.problem.threads,
                                executor=self.executor)
        return self._record(point, outs)

    def evaluate_batch(self, points) -> list:
        """`evaluate` for each of `points`, with the replications of every
        point not yet evaluated submitted as one batch; evaluations are
        recorded in the order of `points`."""
        work = {p: self._work(p) for p in points}
        fresh = [p for p in work if p not in self.cache]
        reps = self.problem.reps_per_eval
        tasks = [(self.config, seed, i, layout)
                 for seed, layout in map(work.get, fresh) for i in range(reps)]
        outs = run_batch(tasks, self.problem.threads, self.executor)
        for k, point in enumerate(fresh):
            self._record(point, outs[k * reps:(k + 1) * reps])
        return [self.cache[p] for p in points]

    @property
    def used(self) -> int:
        return len(self.evaluations)


def neighbors(point: DecisionPoint, bounds: Bounds) -> list:
    """Unit-step moves in the fixed order (+d, -d, +o, -o), clipped."""
    d, o = point
    moves = (
        DecisionPoint(d + 1, o),
        DecisionPoint(d - 1, o),
        DecisionPoint(d, o + 1),
        DecisionPoint(d, o - 1),
    )
    return [m for m in moves if bounds.contains(m)]


def _trace_from(evaluator: Evaluator) -> OptimizationTrace:
    evaluations = tuple(evaluator.evaluations)
    incumbent = []
    best = math.inf
    best_at = 0
    best_point = None
    for ev in evaluations:
        if ev.mean_cost < best:
            best = ev.mean_cost
            best_at = ev.index
            best_point = ev.point
        incumbent.append(best)
    return OptimizationTrace(
        evaluations=evaluations,
        incumbent=tuple(incumbent),
        best_point=best_point,
        best_value=best,
        best_found_at=best_at,
    )


def optimize(problem: OptimizationProblem, executor=None) -> OptimizationTrace:
    """Tabu-augmented best-improvement descent with random restarts.

    Stops when the evaluation budget is exhausted or every feasible point
    has been evaluated. Deterministic for a fixed problem: restart choices
    come from a seed-derived generator and all tie-breaking is fixed. The
    unevaluated neighbours of the current point are evaluated as one batch,
    on one worker pool for the whole search (`executor`, if given, else a
    pool of `problem.threads` workers opened for this call).
    """
    problem.validate()
    bounds = problem.bounds
    space = bounds.all_points()
    restart_rng = np.random.default_rng(
        np.random.SeedSequence([problem.seed, _RESTART_TAG])
    )

    with worker_pool(problem.threads, executor) as pool:
        evaluator = Evaluator(problem, executor=pool)
        while evaluator.used < problem.budget and len(evaluator.cache) < len(space):
            fresh = [p for p in space if not evaluator.evaluated(p)]
            current = fresh[int(restart_rng.integers(len(fresh)))]
            current_val = evaluator.evaluate(current)[0]
            while evaluator.used < problem.budget:
                # tabu: never revisited; the budget cuts the batch in move order
                moves = [nb for nb in neighbors(current, bounds)
                         if not evaluator.evaluated(nb)][:problem.budget - evaluator.used]
                best_move = None
                best_val = current_val
                for nb, (val, _) in zip(moves, evaluator.evaluate_batch(moves)):
                    if val < best_val:  # strict improvement; first-in-order wins ties
                        best_move, best_val = nb, val
                if best_move is None:
                    break  # local optimum under tabu: restart
                current, current_val = best_move, best_val

    return _trace_from(evaluator)


def brute_force_optimum(problem: OptimizationProblem) -> tuple[DecisionPoint, float]:
    """Exhaustive oracle: evaluate every feasible point with CRN semantics
    and return the lexicographically-first argmin. One worker pool serves
    the whole run; each batch is one dispenser count, which bounds the
    replication outputs held at once."""
    problem.validate()
    space = problem.bounds.all_points()
    if len(space) > 10_000:
        raise ConfigurationError(
            f"feasible space of {len(space)} points exceeds the brute-force guard"
        )
    row = problem.bounds.operative_max
    values = []
    with worker_pool(problem.threads) as pool:
        evaluator = Evaluator(replace(problem, crn=True), executor=pool)
        for start in range(0, len(space), row):
            values += [val for val, _ in evaluator.evaluate_batch(space[start:start + row])]
    # space is in lexicographic (dispensers, operatives) order; min keeps the first
    best = min(range(len(space)), key=values.__getitem__)
    return space[best], values[best]
