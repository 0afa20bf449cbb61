"""Benchmark workloads, the CLI commands they run, and the output check.

Every workload is a closed loop with one client: the next CLI command
starts when the previous one has returned. Each command gets a fresh
seed drawn from the workload's reference pool, in an order fixed by the
benchmark's `--seed`, and its reports are compared with the outputs
recorded for that seed (see record_reference.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

import click

from source import CONFIG, ROOT

from crossdock_sim import cli

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Costs must match the recorded outputs to this relative tolerance, the one
# an engine rewrite is held to against the current engine; counts, points
# and flags must match exactly.
REL_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    options: tuple  # CLI options after the config path, without --seed/--out/--threads
    threads: int  # --threads of the untraced run; traced runs use 1
    seed_pool: int  # reference seeds are 1..seed_pool
    trace_commands: int  # commands in the traced run, so its counts repeat exactly

    def args(self, seed: int, out: Path, threads: int) -> list:
        return [self.command, str(CONFIG), *self.options, "--seed", str(seed),
                "--out", str(out), "--threads", str(threads)]

    def seed_order(self, bench_seed: int) -> list:
        """The pool's seeds in an order that depends only on `bench_seed`."""
        seeds = list(range(1, self.seed_pool + 1))
        random.Random(bench_seed).shuffle(seeds)
        return seeds


# Why these three workloads:
# - simulate-crn: one lightly loaded layout, dedicated streams, a single
#   thread. Nearly all time is in rng, model and kernel, with no process
#   pool and nothing shared across layouts, so an engine change (order
#   trace plus per-pool FIFO recursions) shows in full and memoizing
#   across layouts predicts no change. It is the single-thread baseline.
# - optimize-crn: the full Bounds(6,4) grid under CRN at 2 threads. Layouts
#   range from idle to saturated, each of the 24 evaluations starts its own
#   process pool, and 84 of every 96 per-replication queue simulations
#   repeat, so memoization and a persistent pool show here.
# - optimize-nocrn: the same optimizer and pool path in default-stream mode
#   with a disjoint key space per point, so no queue simulation repeats and
#   memoization predicts no change. An engine that speeds up dedicated
#   streams but slows the shared stream shows up here as a loss.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("simulate-crn", "simulate", ("--reps", "20"), threads=1,
                 seed_pool=800, trace_commands=8),
        Workload("optimize-crn", "optimize", ("--crn", "--reps", "5"), threads=2,
                 seed_pool=160, trace_commands=2),
        Workload("optimize-nocrn", "optimize", ("--no-crn", "--reps", "5"), threads=2,
                 seed_pool=160, trace_commands=2),
    )
}


def run_command(workload: Workload, seed: int, out: Path, threads: int,
                wrap=None) -> tuple:
    """Run one CLI command in process; returns (seconds, error or None).

    `wrap`, if given, is a context manager factory entered around the
    timed call (the tracer uses it to open the command span).
    """
    for stale in out.iterdir():  # reports of the previous command must not be checked
        stale.unlink()
    args = workload.args(seed, out, threads)
    span = wrap(f"cli.{workload.command}") if wrap else contextlib.nullcontext()
    error = None
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            with span:
                cli.main(args, standalone_mode=False)
        except SystemExit as exc:
            if exc.code not in (0, None):
                error = f"exit code {exc.code}"
        except click.ClickException as exc:
            error = f"usage error: {exc.format_message()}"
        except Exception as exc:  # noqa: BLE001 - a failed command is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return seconds, error


def _cell(text: str):
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        return float(text)


def _csv_rows(path: Path) -> list:
    lines = path.read_text().splitlines()
    body = [line for line in lines[2:] if line]  # skip manifest comment and header
    return [[_cell(c) for c in line.split(",")] for line in body]


def read_reports(command: str, out: Path) -> dict:
    """The parts of a command's reports that the output check compares."""
    if command == "simulate":
        summary = json.loads((out / "simulate_summary.json").read_text())["summary"]
        return {"summary": summary, "rows": _csv_rows(out / "simulate_replications.csv")}
    summary = json.loads((out / "optimize_summary.json").read_text())["result"]
    return {"summary": summary, "rows": _csv_rows(out / "optimize_trace.csv")}


def replications_in(report: dict) -> int:
    """Paper-horizon replications a command completed, read from its reports."""
    summary = report["summary"]
    if "evaluations_used" in summary:
        return summary["evaluations_used"] * summary["reps_per_eval"]
    return summary["n"]


def mismatches(actual, expected, where: str = "") -> list:
    """Differences between two report structures; floats within REL_TOL."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{where}: keys differ"]
        return [m for k in sorted(expected)
                for m in mismatches(actual[k], expected[k], f"{where}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: length differs"]
        return [m for i, (a, e) in enumerate(zip(actual, expected))
                for m in mismatches(a, e, f"{where}[{i}]")]
    if isinstance(expected, float) and not isinstance(actual, bool) \
            and isinstance(actual, (int, float)):
        if math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=0.0):
            return []
        return [f"{where}: {actual!r} != {expected!r}"]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{where}: {actual!r} != {expected!r}"]
    return []


def reference_path(workload: Workload) -> Path:
    return REFERENCE_DIR / f"{workload.name}.json"


def load_reference(workload: Workload) -> dict:
    """Recorded reports keyed by command seed."""
    data = json.loads(reference_path(workload).read_text())
    return {int(seed): report for seed, report in data.items()}


def check_command(workload: Workload, seed: int, out: Path, reference: dict) -> tuple:
    """Compare a finished command's reports with the reference.

    Returns (replications completed, error or None).
    """
    try:
        report = read_reports(workload.command, out)
        reps = replications_in(report)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return 0, f"unreadable reports: {exc!r}"
    if seed not in reference:
        return reps, f"no reference recorded for seed {seed}"
    diffs = mismatches(report, reference[seed], "report")
    if diffs:
        return reps, f"{len(diffs)} mismatches, first {diffs[0]}"
    return reps, None


def run_dir() -> Path:
    """Scratch directory for report files, inside the checkout."""
    path = ROOT / ".bench_out"
    path.mkdir(exist_ok=True)
    return path
