"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. The full-horizon
criteria (1, 2, 4) dominate the runtime.
"""

import json
import math
import statistics
import time
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner

from crossdock_sim import (
    Bounds,
    OptimizationProblem,
    brute_force_optimum,
    optimize,
    run_replication,
    run_replications,
    stream_create,
    summarize,
    t_quantile,
)
from crossdock_sim.analysis import paired_comparison
from crossdock_sim.rng import exponential_inverse, triangular_inverse
from crossdock_sim.cli import main


def report(criterion, detail):
    print(f"\n[criterion {criterion}] PASS - {detail}")


def test_criterion_1_sqrt_n_half_width_scaling(paper_config):
    start = time.perf_counter()
    cfg = paper_config.with_crn_mode("default_stream")
    costs = [o.total_usage_cost for o in run_replications(cfg, 12345, range(2500))]
    hw_100 = summarize(costs[:100]).half_width
    hw_2500 = summarize(costs).half_width
    ratio = hw_100 / hw_2500
    elapsed = time.perf_counter() - start
    assert 4.0 <= ratio <= 6.3
    assert elapsed < 120.0
    report(1, f"half-width ratio 100/2500 = {ratio:.3f} in [4.0, 6.3], "
              f"{elapsed:.0f}s")


def test_criterion_2_crn_paired_variance_reduction(paper_config):
    cfg_b = replace(paper_config, dispensers_per_point=2)
    crn = paired_comparison(paper_config, cfg_b, 200, True, 12345)
    ind = paired_comparison(paper_config, cfg_b, 200, False, 12345)
    ratio = crn.var_diff / ind.var_diff
    assert crn.var_diff < ind.var_diff
    assert ratio <= 0.7  # pilot for this seed: ~4.6e-7
    report(2, f"var_diff ratio crn/independent = {ratio:.2e} <= 0.7")


def test_criterion_3_table5_report_shape(fast_config, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(fast_config.to_dict()))
    out = tmp_path / "reports"
    result = CliRunner().invoke(main, [
        "table5", str(config_path),
        "--levels", "100,500,1000,2500,5000",
        "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    table = json.loads((out / "table5.json").read_text())["table"]
    rows = table["rows"]
    assert [r["replications"] for r in rows] == [100, 500, 1000, 2500, 5000]
    for column in ("halfwidth_default_stream", "halfwidth_crn"):
        widths = [r[column] for r in rows]
        assert all(a > b for a, b in zip(widths, widths[1:])), column
    for metric in ("first_minus_last_halfwidth_default_stream",
                   "first_minus_last_halfwidth_crn",
                   "sum_of_level_differences"):
        assert metric in table
    csv_lines = (out / "table5.csv").read_text().splitlines()
    assert len([l for l in csv_lines[2:] if l and not l[0].isalpha()]) == 5
    report(3, "5 rows, both summary metrics, half widths strictly decreasing")


def test_criterion_4_optimizer_matches_brute_force(paper_config):
    start = time.perf_counter()
    for seed in (1, 2, 3):
        problem = OptimizationProblem(
            base_config=paper_config, bounds=Bounds(6, 4),
            reps_per_eval=5, budget=100, crn=True, seed=seed,
        )
        trace = optimize(problem)
        best_point, best_value = brute_force_optimum(problem)
        assert trace.best_point == best_point, f"seed {seed}"
        assert trace.best_value == pytest.approx(best_value, rel=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(4, f"optimize == brute force on seeds 1-3, {elapsed:.0f}s")


def test_criterion_5_crn_convergence_advantage(fast_config):
    found_at = {}
    for crn in (True, False):
        found_at[crn] = []
        for seed in range(20):
            problem = OptimizationProblem(
                base_config=fast_config, bounds=Bounds(6, 4),
                reps_per_eval=3, budget=100, crn=crn, seed=seed,
            )
            found_at[crn].append(optimize(problem).best_found_at)
    med_crn = statistics.median(found_at[True])
    med_ind = statistics.median(found_at[False])
    assert med_crn <= med_ind
    report(5, f"median best_found_at: crn {med_crn} <= independent {med_ind}")


def test_criterion_6_statistical_kernel():
    assert t_quantile(2, 0.975) == pytest.approx(4.3027, abs=1e-3)
    assert t_quantile(99, 0.975) == pytest.approx(1.9842, abs=1e-3)
    stats = summarize([1.0, 2.0, 3.0], 0.95)
    assert stats.half_width == pytest.approx(2.4841, abs=1e-3)
    report(6, "t quantiles and half width match published values to 1e-3")


def test_criterion_7_sampling_means():
    s = stream_create(2024, "manual_service_point_A", 0)
    tri = [triangular_inverse(s.uniform(), 3.0, 7.0, 14.0) for _ in range(10**6)]
    tri_mean = sum(tri) / len(tri)
    assert abs(tri_mean - 8.0) < 0.005 * 8.0
    s = stream_create(2024, "arrival", 0)
    exp = [exponential_inverse(s.uniform(), 5.0) for _ in range(10**6)]
    exp_mean = sum(exp) / len(exp)
    assert abs(exp_mean - 5.0) < 0.005 * 5.0
    report(7, f"triangular mean {tri_mean:.4f} ~ 8, exponential mean "
              f"{exp_mean:.4f} ~ 5, both within 0.5%")


def test_criterion_8_conservation_and_byte_determinism(fast_config, tmp_path):
    for out in run_replications(fast_config, 77, range(50)):
        assert out.arrivals == out.completions + out.in_system_at_end

    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(fast_config.to_dict()))
    outputs = {}
    for name, threads in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / name
        result = CliRunner().invoke(main, [
            "simulate", str(config_path), "--reps", "10",
            "--out", str(out), "--threads", threads,
        ])
        assert result.exit_code == 0, result.output
        outputs[name] = {p.name: p.read_bytes() for p in sorted(Path(out).iterdir())}
    assert outputs["a"] == outputs["b"] == outputs["c"]
    report(8, "conservation holds over 50 replications; CLI outputs "
              "byte-identical across re-runs and --threads")


def test_criterion_9_crn_synchronization(fast_config):
    base = run_replication(fast_config, 4242, 0, collect_log=True)
    changed = run_replication(
        replace(fast_config, skilled_per_point=3, unskilled_per_point=1),
        4242, 0, collect_log=True,
    )
    arrivals = lambda log: [r[0] for r in log if r[1] == "arrival"]
    seq_a, seq_b = arrivals(base.log), arrivals(changed.log)
    assert seq_a == seq_b
    assert len(seq_a) > 0
    report(9, f"{len(seq_a)} arrival times exactly equal across operative change")
