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
from pathlib import Path

import click

from . import __version__
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
from .reporting import write_csv, write_json


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
        except click.ClickException:
            raise  # a usage error that names its option; click exits 2
        except (ConfigurationError, ComparisonError, InsufficientDataError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except Exception as exc:  # noqa: BLE001 - boundary of the CLI
            click.echo(f"runtime error: {exc}", err=True)
            sys.exit(3)

    return wrapper


def write_reports(out: str, command: str, seed: int, params: dict, reports: dict) -> None:
    """Write a command's reports into directory `out`, each embedding the one
    manifest that lists them in the order of `reports`. A dict is a JSON
    payload; a tuple is a CSV (header, rows[, footer]). JSON goes first, so a
    value JSON refuses (NaN, infinity) stops before any file is written."""
    manifest = {"command": command, "version": __version__, "seed": seed,
                "parameters": params, "outputs": list(reports)}
    directory = Path(out)
    directory.mkdir(parents=True, exist_ok=True)
    for name, report in sorted(reports.items(), key=lambda kv: isinstance(kv[1], tuple)):
        if isinstance(report, dict):
            write_json(directory / name, {"manifest": manifest, **report})
        else:
            write_csv(directory / name, *report[:2], manifest, *report[2:])


def positive_finite(ctx, param, value):
    """Option callback: a finite number > 0; NaN passes every range test, and
    JSON has no infinity."""
    if not math.isfinite(value):
        raise click.BadParameter("must be a finite number")
    if value <= 0:
        raise click.BadParameter(f"{value!r} is not > 0")
    return value


def check_confidence(ctx, param, value):
    """Option callback: a finite level whose 1 - (1 - level) / 2 is below 1."""
    if 1.0 - (1.0 - positive_finite(ctx, param, value)) / 2.0 == 1.0:
        raise click.BadParameter(f"{value!r} is too close to 1 for a t quantile")
    return value


def parse_levels(ctx, param, value):
    """Option callback: comma-separated replication counts >= 2, ascending."""
    try:
        levels = [int(x) for x in value.split(",") if x.strip()]
    except ValueError:
        levels = None
    if not levels or min(levels) < 2 or levels != sorted(set(levels)):
        raise click.BadParameter(f"must be strictly ascending integers >= 2, got {value!r}")
    return levels


seed_option = click.option("--seed", default=12345, show_default=True,
                           type=click.IntRange(min=0))
confidence_option = click.option(
    "--confidence", default=0.95, show_default=True, callback=check_confidence,
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
@click.option("--reps", default=100, show_default=True, type=click.IntRange(min=2))
@confidence_option
@click.option("--event-log", is_flag=True,
              help="Also write a per-event CSV (slow; for auditing).")
@out_option
@threads_option
@handles_errors
def simulate(config_path, seed, reps, confidence, event_log, out, threads):
    """Run replications of one config and summarize Total Usage Cost."""
    config = load_config(config_path)
    results = run_replications(config, seed, range(reps), threads=threads,
                               collect_log=event_log)
    stats = summarize([r.total_usage_cost for r in results], confidence)

    reports = {
        "simulate_summary.json": {"summary": stats},
        "simulate_replications.csv": (
            ["replication", "total_usage_cost", "arrivals", "completions",
             "in_system_at_end"],
            [
                (i, r.total_usage_cost, r.arrivals, r.completions, r.in_system_at_end)
                for i, r in enumerate(results)
            ],
        ),
    }
    if event_log:
        reports["simulate_events.csv"] = (
            ["replication", "time", "event_kind", "entity_id", "pool",
             "queue_len", "busy_units"],
            [(i, *row) for i, r in enumerate(results) for row in r.log],
        )
    write_reports(out, "simulate", seed,
                  {"config": config.to_dict(), "reps": reps, "confidence": confidence},
                  reports)
    click.echo(f"mean {stats.mean:.2f}  half_width {stats.half_width:.2f}  n {stats.n}")


@main.command()
@click.argument("config_path", metavar="CONFIG")
@click.option("--levels", default="100,500,1000,2500,5000", show_default=True,
              callback=parse_levels, help="Comma-separated ascending replication counts.")
@seed_option
@confidence_option
@out_option
@threads_option
@handles_errors
def table5(config_path, levels, seed, confidence, out, threads):
    """Half-width reduction over replication levels, default vs dedicated
    streams."""
    config = load_config(config_path)
    table = halfwidth_table(config, levels, confidence, seed, threads=threads)

    write_reports(out, "table5", seed, {
        "config": config.to_dict(), "levels": levels, "confidence": confidence,
    }, {
        "table5.csv": (
            ["replications", "halfwidth_default_stream", "halfwidth_crn", "difference"],
            [
                (r.replications, r.halfwidth_default_stream, r.halfwidth_crn,
                 r.difference)
                for r in table.rows
            ],
            [
                ("first_minus_last_halfwidth_default_stream",
                 table.first_minus_last_halfwidth_default_stream),
                ("first_minus_last_halfwidth_crn", table.first_minus_last_halfwidth_crn),
                ("sum_of_level_differences", table.sum_of_level_differences),
            ],
        ),
        "table5.json": {"table": table},
    })
    click.echo(f"wrote table5 reports for levels {levels}")


@main.command()
@click.argument("config_a", metavar="CONFIG_A")
@click.argument("config_b", metavar="CONFIG_B")
@click.option("--reps", default=100, show_default=True, type=click.IntRange(min=2))
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
    modes = (crn, not crn) if both else (crn,)
    result, *other = paired_comparisons(cfg_a, cfg_b, reps, modes, seed, confidence,
                                        threads)
    payload = {"requested": result}
    if other:
        var = {r.crn: r.var_diff for r in (result, *other)}
        payload["other_mode"] = other[0]
        payload["var_diff_ratio_crn_over_independent"] = (
            var[True] / var[False] if var[False] > 0 else None)
    write_reports(out, "compare", seed, {
        "config_a": cfg_a.to_dict(),
        "config_b": cfg_b.to_dict(),
        "reps": reps,
        "crn": crn,
        "both": both,
        "confidence": confidence,
    }, {"compare.json": payload})
    click.echo(
        f"mean_diff {result.mean_diff:.2f}  var_diff {result.var_diff:.2f}  "
        f"crn {result.crn}"
    )


@main.command(name="optimize")
@click.argument("config_path", metavar="CONFIG")
@click.option("--budget", default=100, show_default=True, type=click.IntRange(min=1))
@click.option("--reps", default=5, show_default=True, type=click.IntRange(min=2))
@click.option("--crn/--no-crn", default=True, show_default=True)
@click.option("--dispenser-max", default=6, show_default=True, type=click.IntRange(min=1))
@click.option("--operative-max", default=4, show_default=True, type=click.IntRange(min=1))
@click.option("--validate-reps", default=None, type=click.IntRange(min=2),
              help="Re-evaluate the best point at this many fresh replications.")
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
    with worker_pool(threads) as pool:
        trace = run_optimize(problem, pool)
        summary = {"result": trace.summary_dict(problem)}
        if validate_reps is not None:
            validator = Evaluator(problem.for_validation(validate_reps), executor=pool)
            mean, hw = validator.evaluate(trace.best_point)
            summary["validation"] = {"reps": validate_reps, "mean": mean, "half_width": hw}

    # an evaluation is a new best when it beats the incumbent before it
    rows = [(ev.index, *ev.point, ev.mean_cost, ev.half_width, inc, ev.mean_cost < before)
            for ev, inc, before in zip(trace.evaluations, trace.incumbent,
                                       (math.inf, *trace.incumbent))]
    write_reports(out, "optimize", seed, {
        "config": config.to_dict(),
        "budget": budget,
        "reps_per_eval": reps,
        "crn": crn,
        "bounds": {"dispenser_max": dispenser_max, "operative_max": operative_max},
        "validate_reps": validate_reps,
    }, {
        "optimize_trace.csv": (
            ["eval_index", "dispensers", "operatives", "mean_cost", "half_width",
             "incumbent_cost", "is_new_best"],
            rows,
        ),
        "optimize_summary.json": summary,
    })
    click.echo(
        f"best {tuple(trace.best_point)} value {trace.best_value:.2f} "
        f"found at evaluation {trace.best_found_at}"
    )


@main.command()
@click.argument("config_path", metavar="CONFIG")
@click.option("--target", required=True, type=float, callback=positive_finite,
              help="Target confidence-interval half width.")
@click.option("--n0", default=10, show_default=True, type=click.IntRange(min=2))
@click.option("--n-max", default=10000, show_default=True, type=int)
@confidence_option
@seed_option
@out_option
@threads_option
@handles_errors
def precision(config_path, target, n0, n_max, confidence, seed, out, threads):
    """Replicate until the half width meets a specified precision."""
    if n_max < n0:
        raise click.BadParameter(f"must be >= --n0 ({n0})", param_hint="'--n-max'")
    config = load_config(config_path)
    result = replicate_to_precision(config, seed, confidence, target, n0, n_max,
                                    threads=threads)
    write_reports(out, "precision", seed, {
        "config": config.to_dict(),
        "target": target,
        "n0": n0,
        "n_max": n_max,
        "confidence": confidence,
    }, {"precision.json": {"result": result}})
    click.echo(
        f"achieved {result.achieved}  n_used {result.n_used}  "
        f"half_width {result.final.half_width:.2f}"
    )


if __name__ == "__main__":
    main()
