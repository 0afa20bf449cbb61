"""Microbenchmarks timed from outside the package, one layer at a time.

Each returns a median over several repeats, so one preempted repeat on
a shared machine does not move the figure.
"""

from __future__ import annotations

import importlib.util
import random
import re
import statistics
import subprocess
import sys
import time

from source import CONFIG, ROOT, SRC

from crossdock_sim import model
from crossdock_sim.cli import load_config
from crossdock_sim.optimizer import Bounds, OptimizationProblem, optimize
from crossdock_sim.rng import stream_create

REPEATS = 5


def _median_per_call(body, calls: int) -> float:
    """Median seconds per call of `body(calls)` over REPEATS repeats."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        body(calls)
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def uniform_ns() -> float:
    """One `RandomStream.uniform()` draw, buffer refills included."""
    def body(n):
        draw = stream_create(1, "arrival", 0).uniform
        for _ in range(n):
            draw()
    return _median_per_call(body, 200_000) * 1e9


def stream_create_us() -> float:
    """Construction of one keyed Philox stream."""
    def body(n):
        for i in range(n):
            stream_create(1, "arrival", i)
    return _median_per_call(body, 2_000) * 1e6


def has_kernel() -> bool:
    """True while the event-calendar kernel exists and the model uses it."""
    if importlib.util.find_spec("crossdock_sim.kernel") is None:
        return False
    from crossdock_sim import kernel
    return all(hasattr(kernel, n) for n in ("EventCalendar", "ResourcePool")) \
        and hasattr(model, "EventCalendar")


def calendar_depth(config) -> float:
    """Mean number of pending events seen by `next_event` in one paper
    replication, found by substituting a counting calendar in the model."""
    base = model.EventCalendar
    depths = []

    class CountingCalendar(base):
        __slots__ = ()

        def next_event(self):
            depths.append(len(self))
            return base.next_event(self)

    model.EventCalendar = CountingCalendar
    try:
        model.run_replication(config, 1, 0)
    finally:
        model.EventCalendar = base
    return statistics.fmean(depths)


def calendar_op_ns(depth: int) -> float:
    """One `schedule` + `next_event` pair on a calendar holding `depth` events."""
    from crossdock_sim.kernel import EventCalendar

    rnd = random.Random(0)
    gaps = [rnd.expovariate(1 / 5.0) * depth for _ in range(100_000)]

    def body(n):
        cal = EventCalendar()
        for i in range(depth):
            cal.schedule(gaps[i], 0)
        for gap in gaps:
            cal.schedule(cal.next_event()[0] + gap, 0)
    return _median_per_call(body, len(gaps)) * 1e9


def pool_op_ns() -> float:
    """One `seize` + `release` pair on a free resource pool."""
    from crossdock_sim.kernel import ResourcePool

    def body(n):
        pool = ResourcePool("bench", 1)
        seize, release = pool.seize, pool.release
        for i in range(n):
            seize(i, 0.0)
            release(0.0)
    return _median_per_call(body, 200_000) * 1e9


def pool_start_ms(config) -> float:
    """Cost of starting a worker pool: `run_replications` on 2 replications
    at threads 2, minus half their time at threads 1."""
    def timed(threads):
        samples = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            model.run_replications(config, 1, range(2), threads=threads)
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)
    one = timed(1)
    return (timed(2) - one / 2) * 1e3


def replication_ms(config) -> float:
    """One paper-horizon replication in the config's stream mode, median of 9."""
    samples = []
    for i in range(9):
        start = time.perf_counter()
        model.run_replication(config, 12345, i)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def optimize_s(config, threads: int) -> float:
    """One `optimize` run over Bounds(6,4) at 5 reps with CRN."""
    problem = OptimizationProblem(base_config=config, bounds=Bounds(6, 4),
                                  reps_per_eval=5, budget=100, crn=True,
                                  seed=1, threads=threads)
    start = time.perf_counter()
    optimize(problem)
    return time.perf_counter() - start


def paper_config():
    return load_config(str(CONFIG))


def _fresh_interpreter(code: str, *flags: str) -> subprocess.CompletedProcess:
    prelude = f"import sys; sys.path.insert(0, {str(SRC)!r}); "
    return subprocess.run([sys.executable, *flags, "-c", prelude + code], cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=60)


SETUP_CODE = (
    "import crossdock_sim; "
    "from crossdock_sim.cli import load_config; "
    "from crossdock_sim.model import build_model; "
    f"build_model(load_config({str(CONFIG)!r}))"
)


def setup_s() -> float:
    """Wall time of a fresh interpreter that imports the package, loads the
    paper config and builds the model, median of 11; one untimed start
    first compiles the bytecode cache. Not scaled by the pacing loop
    (pace.py): start-up time, mostly loading and mapping files, follows
    the loop's speed too loosely for scaling to steady it."""
    _fresh_interpreter(SETUP_CODE)
    samples = []
    for _ in range(11):
        start = time.perf_counter()
        _fresh_interpreter(SETUP_CODE)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


_IMPORTTIME = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*crossdock_sim\.analysis$")


def analysis_import_s() -> float:
    """Cumulative import time of crossdock_sim.analysis in a fresh interpreter."""
    samples = []
    for _ in range(REPEATS):
        err = _fresh_interpreter("import crossdock_sim.analysis", "-X", "importtime").stderr
        found = [int(m.group(1)) for m in map(_IMPORTTIME.search, err.splitlines()) if m]
        if not found:
            raise RuntimeError("no import time reported for crossdock_sim.analysis")
        samples.append(found[0] * 1e-6)
    return statistics.median(samples)
