import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

from crossdock_sim import (
    Bounds,
    ConfigurationError,
    DecisionPoint,
    OptimizationProblem,
    brute_force_optimum,
    neighbors,
    optimize,
)
from crossdock_sim.analysis import summarize
from crossdock_sim.model import ClassRates, CostRates, ResourceLayout, run_replications
from crossdock_sim.optimizer import (
    _RESTART_TAG,
    Evaluation,
    Evaluator,
    OptimizationTrace,
)


@pytest.fixture
def problem(fast_config):
    return OptimizationProblem(
        base_config=fast_config,
        bounds=Bounds(3, 3),
        reps_per_eval=3,
        budget=100,
        crn=True,
        seed=11,
    )


class TestNeighbors:
    def test_interior_point(self):
        nbs = neighbors(DecisionPoint(3, 2), Bounds(6, 4))
        assert nbs == [
            DecisionPoint(4, 2), DecisionPoint(2, 2),
            DecisionPoint(3, 3), DecisionPoint(3, 1),
        ]

    def test_corner(self):
        assert len(neighbors(DecisionPoint(1, 1), Bounds(6, 4))) == 2

    def test_degenerate_space(self):
        assert neighbors(DecisionPoint(1, 1), Bounds(1, 1)) == []


class TestEvaluate:
    def test_cached_and_deterministic(self, problem):
        ev = Evaluator(problem)
        first = ev.evaluate(DecisionPoint(2, 2))
        second = ev.evaluate(DecisionPoint(2, 2))
        assert first == second
        assert ev.used == 1  # cache hit consumed no budget

    def test_pure_function_of_point_under_crn(self, problem):
        a = Evaluator(problem).evaluate(DecisionPoint(2, 3))
        b = Evaluator(problem).evaluate(DecisionPoint(2, 3))
        assert a == b

    def test_mean_is_arithmetic_mean_of_replications(self, problem):
        point = DecisionPoint(2, 2)
        mean, half_width = Evaluator(problem).evaluate(point)
        outs = run_replications(
            problem.base_config.with_crn_mode("dedicated_streams"),
            problem.seed,
            range(problem.reps_per_eval),
            layout=ResourceLayout.from_totals(*point),
        )
        stats = summarize([o.total_usage_cost for o in outs])
        assert mean == pytest.approx(stats.mean, rel=1e-12)
        assert half_width == pytest.approx(stats.half_width, rel=1e-12)

    def test_no_crn_candidates_use_disjoint_seeds(self, problem):
        prob = replace(problem, crn=False)
        ev = Evaluator(prob)
        # same point still deterministic, distinct points independently seeded
        assert Evaluator(prob).evaluate(DecisionPoint(1, 1)) == ev.evaluate(
            DecisionPoint(1, 1)
        )

    def test_out_of_bounds_rejected(self, problem):
        with pytest.raises(ConfigurationError):
            Evaluator(problem).evaluate(DecisionPoint(4, 1))
        with pytest.raises(ConfigurationError):
            Evaluator(problem).evaluate(DecisionPoint(0, 1))

    def test_problem_validation(self, fast_config):
        bad = OptimizationProblem(fast_config, Bounds(2, 2), reps_per_eval=1,
                                  budget=10, crn=True, seed=1)
        with pytest.raises(ConfigurationError):
            bad.validate()
        bad = OptimizationProblem(fast_config, Bounds(2, 2), reps_per_eval=3,
                                  budget=0, crn=True, seed=1)
        with pytest.raises(ConfigurationError):
            bad.validate()


class TestOptimize:
    def test_budget_one(self, problem):
        trace = optimize(replace(problem, budget=1))
        assert len(trace.evaluations) == 1
        assert trace.best_found_at == 1
        assert trace.best_value == trace.evaluations[0].mean_cost

    def test_trace_invariants(self, problem):
        trace = optimize(problem)
        assert len(trace.evaluations) <= problem.budget
        means = [e.mean_cost for e in trace.evaluations]
        assert trace.best_value == min(means)
        assert trace.best_found_at == means.index(min(means)) + 1
        assert all(a >= b for a, b in zip(trace.incumbent, trace.incumbent[1:]))
        for e in trace.evaluations:
            assert problem.bounds.contains(e.point)
        # tabu: no point evaluated twice
        points = [e.point for e in trace.evaluations]
        assert len(points) == len(set(points))

    def test_exhaustion_matches_brute_force(self, problem):
        trace = optimize(problem)
        assert len(trace.evaluations) == 9  # full 3x3 space within budget
        best_point, best_value = brute_force_optimum(problem)
        assert trace.best_point == best_point
        assert trace.best_value == pytest.approx(best_value, rel=1e-12)

    def test_repeated_runs_identical(self, problem):
        assert optimize(problem) == optimize(problem)

    def test_brute_force_minimum_property(self, problem):
        _, best_value = brute_force_optimum(problem)
        trace = optimize(problem)
        assert all(best_value <= e.mean_cost for e in trace.evaluations)

    def test_degenerate_space(self, problem):
        trace = optimize(replace(problem, bounds=Bounds(1, 1)))
        assert len(trace.evaluations) == 1
        assert trace.best_point == DecisionPoint(1, 1)


class TestBruteForce:
    def test_paper_bounds_grid_size(self):
        assert len(Bounds(6, 4).all_points()) == 24

    def test_single_point_space(self, problem):
        point, _ = brute_force_optimum(replace(problem, bounds=Bounds(1, 1)))
        assert point == DecisionPoint(1, 1)

    def test_space_guard(self, problem):
        with pytest.raises(ConfigurationError):
            brute_force_optimum(replace(problem, bounds=Bounds(200, 100)))


def sequential_search(problem, value):
    """Reference tabu search, one point at a time, as it ran before
    neighbour batching. Returns the evaluated points in order."""
    space = problem.bounds.all_points()
    restart_rng = np.random.default_rng(
        np.random.SeedSequence([problem.seed, _RESTART_TAG]))
    order = []

    def visit(point):
        order.append(point)
        return value(point)[0]

    while len(order) < problem.budget and len(order) < len(space):
        fresh = [p for p in space if p not in order]
        current = fresh[int(restart_rng.integers(len(fresh)))]
        current_val = visit(current)
        while len(order) < problem.budget:
            best_move, best_val = None, current_val
            for nb in neighbors(current, problem.bounds):
                if nb in order:
                    continue
                if len(order) >= problem.budget:
                    break
                val = visit(nb)
                if val < best_val:
                    best_move, best_val = nb, val
            if best_move is None:
                break
            current, current_val = best_move, best_val
    return order


def expected_trace(order, value) -> OptimizationTrace:
    evaluations = tuple(Evaluation(i + 1, p, *value(p)) for i, p in enumerate(order))
    means = [e.mean_cost for e in evaluations]
    incumbent = tuple(min(means[:i + 1]) for i in range(len(means)))
    best = means.index(min(means))
    return OptimizationTrace(evaluations, incumbent, order[best], means[best], best + 1)


def assert_search_matches_sequential_reference(config, crn, threads):
    base = OptimizationProblem(config, Bounds(6, 4), reps_per_eval=2,
                               budget=1, crn=crn, seed=3)
    values = {}

    def value(point):  # one point at a time, in process, memoised over budgets
        if point not in values:
            values[point] = Evaluator(base).evaluate(point)
        return values[point]

    for budget in range(1, 31):
        order = sequential_search(replace(base, budget=budget), value)
        trace = optimize(replace(base, budget=budget, threads=threads))
        assert trace == expected_trace(order, value), budget


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("crn", [True, False])
def test_batched_search_matches_sequential_reference(fast_config, crn, threads):
    assert_search_matches_sequential_reference(fast_config, crn, threads)


@pytest.mark.parametrize("crn", [True, False])
def test_batched_search_breaks_ties_like_sequential_reference(fast_config, crn):
    """Busy rate == idle rate and no per-use charge: every layout costs
    exactly rate x units x horizon, so neighbours with the same d + o tie,
    and only a strict improvement may move the search."""
    flat = ClassRates(busy_rate=10.0, idle_rate=10.0, per_use=0.0)
    config = replace(fast_config, cost_rates=CostRates(flat, flat, flat))
    assert_search_matches_sequential_reference(config, crn, 1)


def test_no_worker_outlives_a_search(problem):
    optimize(replace(problem, threads=2))
    assert multiprocessing.active_children() == []
    brute_force_optimum(replace(problem, threads=2))
    assert multiprocessing.active_children() == []
