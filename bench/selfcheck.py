"""Quick self-check of the benchmark, about a minute:

    python3 bench/selfcheck.py

Runs each workload at a tiny size, traced and untraced, and asserts that
every metric BENCHMARK.json names is reported with its unit and that the
output check passes. It also asserts that the output check catches a cost
off by more than its tolerance, that a timed run which uses up its seed
pool fails, that the pacing loop's helper processes have ended, and that the benchmark refuses to report from a directory
without the package source.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from source import ROOT, use_checkout_source


def expected_metrics(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def check_reported(result, section: str) -> None:
    import micro
    from crossdock_sim import rng

    expected = expected_metrics(section)
    if not micro.has_kernel():
        expected = {k: u for k, u in expected.items() if not k.startswith("kernel.")}
    if not hasattr(rng, "_BUFFER"):
        expected.pop("rng.draw_yield", None)
    reported = {name: unit for name, (_, unit) in result.metrics.items()}
    assert reported == expected, f"{section}: reported {reported}, expected {expected}"
    assert result.tally.failed == 0, result.tally.errors


# Counts that repeat exactly: (optimizer.repeated_queue_share, rng.streams_per_rep).
EXACT_COUNTS = {
    "simulate-crn": (0.0, 7.0),
    "optimize-crn": (0.875, 7.0),
    "optimize-nocrn": (0.0, 1.0),
}


def check_workloads() -> None:
    import harness
    from workloads import WORKLOADS

    for workload in WORKLOADS.values():
        check_reported(harness.untraced(workload, 1, 0.0, max_commands=1), "end_to_end")
        layers = harness.traced(workload, 1, max_commands=1)
        check_reported(layers, "per_layer")
        counts = tuple(layers.metrics[name][0] for name in
                       ("optimizer.repeated_queue_share", "rng.streams_per_rep"))
        assert counts == EXACT_COUNTS[workload.name], (workload.name, counts)
        print(f"ok {workload.name}", file=sys.stderr)


def check_output_check_catches_errors() -> None:
    from workloads import REL_TOL, WORKLOADS, load_reference, mismatches

    reference = load_reference(WORKLOADS["simulate-crn"])[1]
    wrong = json.loads(json.dumps(reference))
    wrong["rows"][0][1] *= 1 + 10 * REL_TOL
    assert mismatches(wrong, reference), "a cost off by 10x the tolerance passed"
    wrong = json.loads(json.dumps(reference))
    wrong["rows"][0][2] += 1
    assert mismatches(wrong, reference), "an arrival count off by one passed"
    assert not mismatches(json.loads(json.dumps(reference)), reference)


def check_exhausted_pool_fails() -> None:
    import harness
    from workloads import WORKLOADS

    tiny = dataclasses.replace(WORKLOADS["simulate-crn"], seed_pool=2)
    try:
        harness.untraced(tiny, 1, 3600.0)
    except harness.PoolExhausted:
        return
    raise AssertionError("a run that used up its seed pool reported a result")


def check_pacer_stops_helpers() -> None:
    import harness
    from pace import Pacer

    with Pacer(2) as pacer:
        pacer.begin()
        paced = pacer.scale(0.1)
        assert len(pacer.helpers) == 1 and paced > 0, (pacer.helpers, paced)
    assert not harness._descendants(), harness._descendants()


def check_refuses_without_source() -> None:
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".bench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "simulate-crn", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout


def main() -> int:
    use_checkout_source()
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    check_output_check_catches_errors()
    check_refuses_without_source()
    check_exhausted_pool_fails()
    check_pacer_stops_helpers()
    check_workloads()
    import harness
    assert not harness._descendants(), "a process outlived its run"
    print("selfcheck passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
