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

from dataclasses import dataclass, replace
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .analysis import summarize
from .errors import ConfigurationError
from .model import ModelConfig, ResourceLayout, run_batch, run_replications, worker_pool
from .rng import derive_master_seed

# The largest decision grid a problem may span: its points are built as a
# list, and a grid layout then holds at most 5,000 units per class and point.
MAX_GRID_POINTS = 10_000

_RESTART_TAG = 0x5EED
_POINT_SEED_TAG = 0xCAFE
_VALIDATION_TAG = 0xC0DE


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
    """A search's frame, checked when built."""

    base_config: ModelConfig
    bounds: Bounds
    reps_per_eval: int
    budget: int
    crn: bool
    seed: int
    threads: int = 1

    def __post_init__(self):
        if self.budget < 1:
            raise ConfigurationError("budget must be >= 1")
        if self.reps_per_eval < 2:
            raise ConfigurationError("reps_per_eval must be >= 2")
        if self.bounds.dispenser_max < 1 or self.bounds.operative_max < 1:
            raise ConfigurationError("bounds must allow at least one point")
        points = self.bounds.dispenser_max * self.bounds.operative_max
        if points > MAX_GRID_POINTS:
            raise ConfigurationError(
                f"dispenser_max x operative_max = {points} points, more than "
                f"{MAX_GRID_POINTS}")

    def for_validation(self, reps: int) -> "OptimizationProblem":
        """Re-evaluation at `reps` replications that the search never ran."""
        return replace(self, seed=derive_master_seed(self.seed, _VALIDATION_TAG),
                       reps_per_eval=reps, budget=1)


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
    """Evaluates each point once, into `evaluations`; repeats cost no budget.

    Replications run on `executor`, a worker pool that the caller keeps
    open across evaluations; without one, each call at `problem.threads`
    > 1 starts a pool of its own.
    """

    def __init__(self, problem: OptimizationProblem, executor=None):
        self.problem = problem
        self.config = problem.base_config.with_crn_mode(
            "dedicated_streams" if problem.crn else "default_stream")
        self.executor = executor
        self.evaluations: dict[DecisionPoint, Evaluation] = {}

    def _work(self, point: DecisionPoint) -> tuple:
        """Master seed and layout of the replications at `point`."""
        problem = self.problem
        if not problem.bounds.contains(point):
            raise ConfigurationError(f"point {point} outside bounds {problem.bounds}")
        seed = problem.seed if problem.crn else derive_master_seed(
            problem.seed, _POINT_SEED_TAG, point.dispensers, point.operatives)
        return seed, ResourceLayout.from_totals(point.dispensers, point.operatives)

    def _record(self, point: DecisionPoint, outs: list) -> None:
        stats = summarize([o.total_usage_cost for o in outs])
        self.evaluations[point] = Evaluation(len(self.evaluations) + 1, point,
                                             stats.mean, stats.half_width)

    def evaluate(self, point: DecisionPoint) -> tuple[float, float]:
        """(mean cost, half width) at `point`, run unless evaluated before."""
        seed, layout = self._work(point)
        if point not in self.evaluations:
            self._record(point, run_replications(
                self.config, seed, range(self.problem.reps_per_eval), layout=layout,
                threads=self.problem.threads, executor=self.executor))
        return self.evaluations[point][2:]  # (mean_cost, half_width)

    def evaluate_batch(self, points) -> list:
        """`evaluate` for each of `points`, with the replications of every
        point not yet evaluated submitted as one batch; evaluations are
        recorded in the order of `points`."""
        work = {p: self._work(p) for p in points}
        fresh = [p for p in work if p not in self.evaluations]
        reps = self.problem.reps_per_eval
        tasks = [(self.config, seed, i, layout)
                 for seed, layout in map(work.get, fresh) for i in range(reps)]
        outs = run_batch(tasks, self.problem.threads, self.executor)
        for k, point in enumerate(fresh):
            self._record(point, outs[k * reps:(k + 1) * reps])
        return [self.evaluations[p][2:] for p in points]


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
    evaluations = tuple(evaluator.evaluations.values())
    best = min(evaluations, key=lambda ev: ev.mean_cost)  # the first of equals
    return OptimizationTrace(
        evaluations=evaluations,
        incumbent=tuple(accumulate((ev.mean_cost for ev in evaluations), min)),
        best_point=best.point,
        best_value=best.mean_cost,
        best_found_at=best.index,
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
    bounds = problem.bounds
    space = bounds.all_points()
    restart_rng = np.random.default_rng(
        np.random.SeedSequence([problem.seed, _RESTART_TAG])
    )

    with worker_pool(problem.threads, executor) as pool:
        evaluator = Evaluator(problem, executor=pool)
        evaluated = evaluator.evaluations
        while len(evaluated) < min(problem.budget, len(space)):
            fresh = [p for p in space if p not in evaluated]
            current = fresh[int(restart_rng.integers(len(fresh)))]
            current_val = evaluator.evaluate(current)[0]
            while len(evaluated) < problem.budget:
                # tabu: never revisited; the budget cuts the batch in move order
                moves = [nb for nb in neighbors(current, bounds)
                         if nb not in evaluated][:problem.budget - len(evaluated)]
                best_move, best_val = None, current_val
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
    space = problem.bounds.all_points()
    row = problem.bounds.operative_max
    with worker_pool(problem.threads) as pool:
        evaluator = Evaluator(replace(problem, crn=True), executor=pool)
        for start in range(0, len(space), row):
            evaluator.evaluate_batch(space[start:start + row])
    # evaluated in lexicographic (dispensers, operatives) order
    trace = _trace_from(evaluator)
    return trace.best_point, trace.best_value
