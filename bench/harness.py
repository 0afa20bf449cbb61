"""The untraced run (end-to-end metrics) and the traced run (per-layer metrics)."""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import micro
from pace import REFERENCE_S, Pacer
from spans import Tracer, installed, layer_metrics, tail
from workloads import Workload, check_command, load_reference, run_command, run_dir


@dataclass
class Tally:
    """Commands run against the reference, and the time of the timed ones."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    seconds: list = field(default_factory=list)  # host seconds per timed command
    paced: list = field(default_factory=list)  # the same, scaled to the reference core
    reps: int = 0

    def run(self, workload: Workload, seed: int, threads: int, reference: dict,
            out: Path, wrap=None) -> tuple:
        """Run and check one command; returns (host seconds, replications)."""
        seconds, error = run_command(workload, seed, out, threads, wrap)
        reps, mismatch = check_command(workload, seed, out, reference)
        error = error or mismatch
        self.attempted += 1
        if error:
            self.failed += 1
            self.errors.append(f"seed {seed}: {error}")
        return seconds, reps

    def timed(self, workload, seed, threads, reference, out, wrap=None,
              pacer: Pacer | None = None) -> None:
        seconds, reps = self.run(workload, seed, threads, reference, out, wrap)
        self.seconds.append(seconds)
        if pacer is not None:
            self.paced.append(pacer.scale(seconds))
        self.reps += reps


class PoolExhausted(RuntimeError):
    """The timed run used every reference seed before its time was up."""


@dataclass
class Result:
    metrics: dict  # name -> (value, unit)
    tally: Tally
    notes: list


def _descendants(pid: str = "self") -> list:
    """Pids of the live descendants of `pid`, read from /proc."""
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:  # the process has ended
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as f:
                kids = f.read().split()
        except OSError:
            continue
        for kid in kids:
            found += [kid, *_descendants(kid)]
    return found


def _hwm_kib(pid: str) -> int:
    """Peak resident memory (VmHWM) of a live process; 0 once it has ended."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class MemoryWatch:
    """Peak resident memory of this process and its worker processes.

    A thread sums the peak RSS of all live descendants but the pacing
    helpers (`exclude`) every INTERVAL seconds and keeps the largest sum,
    so workers that run at the same time count together, whether they are
    torn down after each batch or kept alive. Workers too short-lived to be
    seen count through the largest reaped child. The figure is an upper bound: forked workers share pages
    with this process, and the peaks may not coincide.
    """

    INTERVAL = 0.02

    def __init__(self, exclude=()):
        self.exclude = {str(pid) for pid in exclude}
        self.workers_kib = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._watch, daemon=True)

    def _watch(self) -> None:
        while not self._stop.wait(self.INTERVAL):
            live = sum(_hwm_kib(pid) for pid in _descendants() if pid not in self.exclude)
            self.workers_kib = max(self.workers_kib, live)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def peak_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return (own + max(self.workers_kib, reaped)) / 1024.0


def untraced(workload: Workload, bench_seed: int, seconds: float,
             max_commands: int | None = None) -> Result:
    """Commands back to back for `seconds` (at least one), after one untimed
    warm-up, each followed by the pacing loop; the timings are reported in
    seconds of the reference core (see pace.py)."""
    reference = load_reference(workload)
    order = workload.seed_order(bench_seed)
    tally = Tally()
    notes = []
    out = Path(tempfile.mkdtemp(dir=run_dir()))
    try:
        # The memory figure is read before the pacing helpers end and are
        # reaped, so they count neither live nor through RUSAGE_CHILDREN, and
        # before set-up starts interpreters that would count.
        with Pacer(workload.threads) as pacer, MemoryWatch(pacer.helpers) as memory:
            tally.run(workload, order[0], workload.threads, reference, out)
            start = time.perf_counter()
            pacer.begin()
            for seed in order[1:]:
                tally.timed(workload, seed, workload.threads, reference, out, pacer=pacer)
                if time.perf_counter() - start >= seconds or len(tally.seconds) == max_commands:
                    break
            else:
                raise PoolExhausted(
                    f"{workload.name}: all {workload.seed_pool} reference seeds were used "
                    f"in {time.perf_counter() - start:.1f} s, short of {seconds} s; record "
                    "more with bench/record_reference.py")
            elapsed = time.perf_counter() - start
            rss = memory.peak_mb()
    finally:
        shutil.rmtree(out)
    metrics = {
        "setup_s": (micro.setup_s(), "s"),
        "reps_per_s": (tally.reps / sum(tally.paced), "reps/s"),
        "command_s_p50": (statistics.median(tally.paced), "s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    slow, pct = tail(tally.seconds)
    loops = pacer.loops()
    notes += [f"{len(tally.seconds)} timed commands at --threads {workload.threads}, "
              f"{tally.reps} replications, 1 untimed warm-up command",
              f"host seconds, not scaled: {tally.reps / sum(tally.seconds):.3f} reps/s; "
              f"command p50 {statistics.median(tally.seconds):.4f}, p{pct:.1f} {slow:.4f}",
              f"pacing loop on {pacer.width} cores: {len(loops)} runs, mean "
              f"{statistics.fmean(loops) * 1e3:.2f} ms against {REFERENCE_S * 1e3:.1f} ms "
              f"on the reference core, {sum(loops) / elapsed:.1%} of the run"]
    return Result(metrics, tally, notes)


def traced(workload: Workload, bench_seed: int, max_commands: int | None = None) -> Result:
    """A fixed number of commands at --threads 1, each run traced and untraced
    (alternating which goes first), plus the layer microbenchmarks."""
    reference = load_reference(workload)
    order = workload.seed_order(bench_seed)
    count = min(workload.trace_commands, max_commands or workload.trace_commands)
    config = micro.paper_config()
    metrics = {
        "rng.uniform_ns": (micro.uniform_ns(), "ns"),
        "rng.stream_create_us": (micro.stream_create_us(), "us"),
        "model.pool_start_ms": (micro.pool_start_ms(config), "ms"),
        "analysis.import_s": (micro.analysis_import_s(), "s"),
    }
    notes = []
    if micro.has_kernel():
        depth = micro.calendar_depth(config)
        metrics["kernel.calendar_op_ns"] = (micro.calendar_op_ns(round(depth)), "ns")
        metrics["kernel.pool_op_ns"] = (micro.pool_op_ns(), "ns")
        notes.append(f"calendar depth of a paper replication: {depth:.2f} events")
    else:
        notes.append("crossdock_sim.kernel is gone: kernel.* metrics are not reported")

    tracer = Tracer()
    tally = Tally()
    plain = Tally()
    out = Path(tempfile.mkdtemp(dir=run_dir()))
    try:
        tally.run(workload, order[0], 1, reference, out)  # warm-up
        for i, seed in enumerate(order[1:1 + count]):
            for with_spans in ((True, False) if i % 2 == 0 else (False, True)):
                if with_spans:
                    with installed(tracer):
                        tally.timed(workload, seed, 1, reference, out, wrap=tracer.span)
                else:
                    plain.timed(workload, seed, 1, reference, out)
    finally:
        shutil.rmtree(out)
    tracer.write(run_dir() / f"spans-{workload.name}-seed{bench_seed}.json")

    metrics.update(layer_metrics(tracer))
    traced_rate = tally.reps / sum(tally.seconds)
    plain_rate = plain.reps / sum(plain.seconds)
    metrics["trace.overhead_frac"] = ((plain_rate - traced_rate) / plain_rate, "ratio")
    tally.attempted += plain.attempted
    tally.failed += plain.failed
    tally.errors += plain.errors
    reps = [s.seconds for s in tracer.named("model.run_replication")]
    notes += [
        f"{count} commands at --threads 1, each traced and untraced; spans in worker "
        "processes are not collected, so --threads 2 is never traced",
        f"tracing overhead: {plain_rate:.3f} reps/s untraced, {traced_rate:.3f} "
        "reps/s traced",
        f"model.rep_ms_tail is the p{tail(reps)[1]:.2f} of {len(reps)} replications",
    ]
    return Result(metrics, tally, notes)
