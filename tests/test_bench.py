"""Smoke tests of the benchmark: short runs exit 0 with nothing on stderr
and end with a strict JSON result that names every metric they report, and
the baseline script's layers run."""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def bench_result(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args, "--seed", "1", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=reject_constant)
    assert result["correct"] is True
    return result


def test_traced_run_reports_every_per_layer_metric():
    result = bench_result("--workload", "simulate-crn", "--trace", "1")
    assert {metric["name"] for metric in DECLARED["per_layer"]} <= set(result["metrics"])


def test_untraced_pooled_run_reports_every_end_to_end_metric():
    result = bench_result("--workload", "optimize-crn", "--trace", "0")
    assert {metric["name"] for metric in DECLARED["end_to_end"]} <= set(result["metrics"])


def test_baseline_layers_run(monkeypatch):
    """The layers `bench/baselines.py` measures through `bench/micro.py`, run
    once in process, so that a change breaking them fails here too."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import micro

    config = micro.paper_config()
    for mode in ("dedicated_streams", "default_stream"):
        assert micro.replication_ms(config.with_crn_mode(mode)) > 0
    assert micro.optimize_s(config, threads=1) > 0


def test_calendar_depth_probe_runs(monkeypatch):
    """The traced run's `kernel.*` metrics need the engine to take events
    from `model.EventCalendar` in a paper replication: `calendar_depth`
    averages the calendar sizes its `next_event` calls see."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import micro

    depth = micro.calendar_depth(micro.paper_config())
    assert math.isfinite(depth) and depth >= 1
