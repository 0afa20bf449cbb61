"""Re-measure the ROADMAP North-star-1 baselines and print them side by side.

    python3 bench/baselines.py

Prints the machine, the Python and numpy versions and the commit, then
for each layer the baseline taken at the roadmap re-anchor (2-core
machine, Python 3.11.7, numpy 2.4.6) beside the median and quartiles of
REPEATS fresh measurements. A gap wider than the measured quartile spread is
flagged. These figures are informational and gate nothing.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys

from source import ROOT, use_checkout_source

REPEATS = 5


def machine() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            names = [line.split(":", 1)[1].strip() for line in f if line.startswith("model name")]
        model = names[0] if names else model
    except OSError:
        pass
    return f"{model}, {os.cpu_count()} CPUs, {platform.system()} {platform.release()}"


def commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def main() -> int:
    use_checkout_source()
    import numpy

    import micro

    config = micro.paper_config()
    dedicated = config.with_crn_mode("dedicated_streams")
    shared = config.with_crn_mode("default_stream")
    layers = [
        ("one uniform draw", "us", 0.27, lambda: micro.uniform_ns() / 1e3),
        ("stream construction", "us", 26.0, micro.stream_create_us),
        ("one replication, dedicated streams", "ms", 22.3,
         lambda: micro.replication_ms(dedicated)),
        ("one replication, default stream", "ms", 17.8, lambda: micro.replication_ms(shared)),
        ("optimize Bounds(6,4) 5 reps, 1 thread", "s", 3.2,
         lambda: micro.optimize_s(config, threads=1)),
        ("optimize Bounds(6,4) 5 reps, 2 threads", "s", 2.1,
         lambda: micro.optimize_s(config, threads=2)),
    ]
    print(f"machine: {machine()}")
    print(f"python {platform.python_version()}, numpy {numpy.__version__}, commit {commit()}")
    print(f"{'layer':40s} {'baseline':>10s} {'median':>10s} {'q1':>10s} {'q3':>10s}  unit")
    for name, unit, baseline, measure in layers:
        values = [measure() for _ in range(REPEATS)]
        q1, median, q3 = statistics.quantiles(values, n=4)
        gap = median - baseline
        flag = ""
        if abs(gap) > q3 - q1:
            flag = f"  gap {gap:+.3g} {unit} ({gap / baseline:+.0%}) exceeds the spread"
        print(f"{name:40s} {baseline:10.3g} {median:10.3g} {q1:10.3g} {q3:10.3g}  {unit}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
