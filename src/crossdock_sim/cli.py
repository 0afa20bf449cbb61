"""Command-line orchestration.

Commands: simulate, table5, compare, optimize, precision. All randomness
flows from --seed (default 12345); reports are byte-identical across
re-runs with the same flags, including under --threads variation.

Exit codes: 0 success, 2 usage/config error, 3 runtime error.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import click

from .analysis import (
    halfwidth_table,
    paired_comparisons,
    replicate_to_precision,
    summarize,
)
from .errors import (
    ComparisonError,
    ConfigurationError,
    InsufficientDataError,
)
from .model import ModelConfig, run_replications, worker_pool
from .optimizer import (
    Bounds,
    Evaluator,
    OptimizationProblem,
    optimize as run_optimize,
)
from .reporting import make_manifest, write_csv, write_json


def load_config(path: str) -> ModelConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    return ModelConfig.from_dict(raw)


def handles_errors(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except (ConfigurationError, ComparisonError, InsufficientDataError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except Exception as exc:  # noqa: BLE001 - boundary of the CLI
            click.echo(f"runtime error: {exc}", err=True)
            sys.exit(3)

    return wrapper


def out_dir(path: str) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p


def reject_nan(ctx, param, value):
    """Option callback: NaN passes every range test, so reject it here."""
    if math.isnan(value):
        raise click.BadParameter("must not be NaN")
    return value


seed_option = click.option("--seed", default=12345, show_default=True,
                           type=click.IntRange(min=0))
confidence_option = click.option(
    "--confidence", default=0.95, show_default=True, callback=reject_nan,
    type=click.FloatRange(0, 1, min_open=True, max_open=True),
)
threads_option = click.option(
    "--threads", default=1, show_default=True, type=click.IntRange(min=1),
    help="Worker processes, at most the usable CPUs; never changes output bytes.",
)
out_option = click.option(
    "--out", default="reports", show_default=True,
    help="Output directory for report files.",
)


@click.group()
def main():
    """Crossdock order-picking simulation toolkit."""


@main.command()
@click.argument("config_path", metavar="CONFIG")
@seed_option
@click.option("--reps", default=100, show_default=True, type=int)
@confidence_option
@click.option("--event-log", is_flag=True,
              help="Also write a per-event CSV (slow; for auditing).")
@out_option
@threads_option
@handles_errors
def simulate(config_path, seed, reps, confidence, event_log, out, threads):
    """Run replications of one config and summarize Total Usage Cost."""
    config = load_config(config_path)
    if reps < 2:
        raise ConfigurationError("--reps must be >= 2")
    outputs = ["simulate_summary.json", "simulate_replications.csv"]
    if event_log:
        outputs.append("simulate_events.csv")
    manifest = make_manifest(
        "simulate", seed,
        {"config": config.to_dict(), "reps": reps, "confidence": confidence},
        outputs,
    )
    results = run_replications(config, seed, range(reps), threads=threads,
                               collect_log=event_log)
    stats = summarize([r.total_usage_cost for r in results], confidence)

    directory = out_dir(out)
    write_json(directory / "simulate_summary.json",
               {"manifest": manifest, "summary": stats})
    write_csv(
        directory / "simulate_replications.csv",
        ["replication", "total_usage_cost", "arrivals", "completions",
         "in_system_at_end"],
        [
            (i, r.total_usage_cost, r.arrivals, r.completions, r.in_system_at_end)
            for i, r in enumerate(results)
        ],
        manifest,
    )
    if event_log:
        write_csv(
            directory / "simulate_events.csv",
            ["replication", "time", "event_kind", "entity_id", "pool",
             "queue_len", "busy_units"],
            [(i, *row) for i, r in enumerate(results) for row in r.log],
            manifest,
        )
    click.echo(f"mean {stats.mean:.2f}  half_width {stats.half_width:.2f}  n {stats.n}")


@main.command()
@click.argument("config_path", metavar="CONFIG")
@click.option("--levels", default="100,500,1000,2500,5000", show_default=True,
              help="Comma-separated ascending replication counts.")
@seed_option
@confidence_option
@out_option
@threads_option
@handles_errors
def table5(config_path, levels, seed, confidence, out, threads):
    """Half-width reduction over replication levels, default vs dedicated
    streams."""
    config = load_config(config_path)
    try:
        level_list = [int(x) for x in levels.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"--levels must be integers: {exc}") from exc
    manifest = make_manifest(
        "table5", seed,
        {"config": config.to_dict(), "levels": level_list, "confidence": confidence},
        ["table5.csv", "table5.json"],
    )
    table = halfwidth_table(
        config.with_crn_mode("default_stream"),
        config.with_crn_mode("dedicated_streams"),
        level_list, confidence, seed, threads=threads,
    )

    directory = out_dir(out)
    write_json(directory / "table5.json",
               {"manifest": manifest, "table": table})
    write_csv(
        directory / "table5.csv",
        ["replications", "halfwidth_default_stream", "halfwidth_crn", "difference"],
        [
            (r.replications, r.halfwidth_default_stream, r.halfwidth_crn, r.difference)
            for r in table.rows
        ],
        manifest,
        footer=[
            ("first_minus_last_halfwidth_default_stream",
             table.first_minus_last_halfwidth_default_stream),
            ("first_minus_last_halfwidth_crn", table.first_minus_last_halfwidth_crn),
            ("sum_of_level_differences", table.sum_of_level_differences),
        ],
    )
    click.echo(f"wrote table5 reports for levels {level_list}")


@main.command()
@click.argument("config_a", metavar="CONFIG_A")
@click.argument("config_b", metavar="CONFIG_B")
@click.option("--reps", default=100, show_default=True, type=int)
@click.option("--crn/--no-crn", default=True, show_default=True)
@click.option("--both", is_flag=True,
              help="Report the other stream mode too, with the variance ratio.")
@seed_option
@confidence_option
@out_option
@threads_option
@handles_errors
def compare(config_a, config_b, reps, crn, both, seed, confidence, out, threads):
    """Paired comparison of two configs differing only in resource counts."""
    cfg_a = load_config(config_a)
    cfg_b = load_config(config_b)
    manifest = make_manifest(
        "compare", seed,
        {
            "config_a": cfg_a.to_dict(),
            "config_b": cfg_b.to_dict(),
            "reps": reps,
            "crn": crn,
            "both": both,
            "confidence": confidence,
        },
        ["compare.json"],
    )
    modes = (crn, not crn) if both else (crn,)
    result, *other = paired_comparisons(cfg_a, cfg_b, reps, modes, seed, confidence,
                                        threads)
    payload = {"manifest": manifest, "requested": result}
    if other:
        var = {r.crn: r.var_diff for r in (result, *other)}
        payload["other_mode"] = other[0]
        payload["var_diff_ratio_crn_over_independent"] = (
            var[True] / var[False] if var[False] > 0 else None)
    write_json(out_dir(out) / "compare.json", payload)
    click.echo(
        f"mean_diff {result.mean_diff:.2f}  var_diff {result.var_diff:.2f}  "
        f"crn {result.crn}"
    )


@main.command(name="optimize")
@click.argument("config_path", metavar="CONFIG")
@click.option("--budget", default=100, show_default=True, type=int)
@click.option("--reps", default=5, show_default=True, type=int)
@click.option("--crn/--no-crn", default=True, show_default=True)
@click.option("--dispenser-max", default=6, show_default=True, type=int)
@click.option("--operative-max", default=4, show_default=True, type=int)
@click.option("--validate-reps", default=None, type=int,
              help="Re-evaluate the best point at this many replications.")
@seed_option
@out_option
@threads_option
@handles_errors
def optimize_cmd(config_path, budget, reps, crn, dispenser_max, operative_max,
                 validate_reps, seed, out, threads):
    """Minimize Total Usage Cost over dispenser and operative totals."""
    config = load_config(config_path)
    problem = OptimizationProblem(
        base_config=config,
        bounds=Bounds(dispenser_max, operative_max),
        reps_per_eval=reps,
        budget=budget,
        crn=crn,
        seed=seed,
        threads=threads,
    )
    problem.validate()
    if validate_reps is not None and validate_reps < 2:
        raise ConfigurationError("--validate-reps must be >= 2")
    manifest = make_manifest(
        "optimize", seed,
        {
            "config": config.to_dict(),
            "budget": budget,
            "reps_per_eval": reps,
            "crn": crn,
            "bounds": {"dispenser_max": dispenser_max, "operative_max": operative_max},
            "validate_reps": validate_reps,
        },
        ["optimize_trace.csv", "optimize_summary.json"],
    )
    with worker_pool(threads) as pool:
        trace = run_optimize(problem, pool)
        summary = {"manifest": manifest, "result": trace.summary_dict(problem)}
        if validate_reps is not None:
            validator = Evaluator(replace(problem, reps_per_eval=validate_reps, budget=1),
                                  executor=pool)
            mean, hw = validator.evaluate(trace.best_point)
            summary["validation"] = {"reps": validate_reps, "mean": mean, "half_width": hw}

    directory = out_dir(out)
    # an evaluation is a new best when it beats the incumbent before it
    rows = [(ev.index, *ev.point, ev.mean_cost, ev.half_width, inc, ev.mean_cost < before)
            for ev, inc, before in zip(trace.evaluations, trace.incumbent,
                                       (math.inf, *trace.incumbent))]
    write_csv(
        directory / "optimize_trace.csv",
        ["eval_index", "dispensers", "operatives", "mean_cost", "half_width",
         "incumbent_cost", "is_new_best"],
        rows,
        manifest,
    )
    write_json(directory / "optimize_summary.json", summary)
    click.echo(
        f"best {tuple(trace.best_point)} value {trace.best_value:.2f} "
        f"found at evaluation {trace.best_found_at}"
    )


@main.command()
@click.argument("config_path", metavar="CONFIG")
@click.option("--target", required=True, type=float, callback=reject_nan,
              help="Target confidence-interval half width.")
@click.option("--n0", default=10, show_default=True, type=int)
@click.option("--n-max", default=10000, show_default=True, type=int)
@confidence_option
@seed_option
@out_option
@threads_option
@handles_errors
def precision(config_path, target, n0, n_max, confidence, seed, out, threads):
    """Replicate until the half width meets a specified precision."""
    config = load_config(config_path)
    manifest = make_manifest(
        "precision", seed,
        {
            "config": config.to_dict(),
            "target": target,
            "n0": n0,
            "n_max": n_max,
            "confidence": confidence,
        },
        ["precision.json"],
    )
    result = replicate_to_precision(config, seed, confidence, target, n0, n_max,
                                    threads=threads)
    write_json(out_dir(out) / "precision.json",
               {"manifest": manifest, "result": result})
    click.echo(
        f"achieved {result.achieved}  n_used {result.n_used}  "
        f"half_width {result.final.half_width:.2f}"
    )


if __name__ == "__main__":
    main()
