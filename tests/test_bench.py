"""Smoke test of the benchmark: a short traced run exits 0 and ends with a
strict JSON result that names every per-layer metric in BENCHMARK.json."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_traced_run_reports_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "simulate-crn",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=reject_constant)
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {metric["name"] for metric in declared} <= set(result["metrics"])
