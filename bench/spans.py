"""In-memory spans around calls into each module's public functions.

Spans are recorded only from the benchmark's side: each public function is
replaced, for the length of the traced run, by a wrapper under the name
the caller looks it up by. Worker processes are not traced, so a traced
run uses --threads 1.
"""

from __future__ import annotations

import contextlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from crossdock_sim import analysis, cli, model, optimizer, rng
from crossdock_sim.model import ResourceLayout


@dataclass
class Span:
    name: str
    start: float
    index: int  # position in Tracer.spans
    parent: int | None  # index of the enclosing span
    command: int  # sequence number of the CLI command it belongs to
    end: float = math.nan
    data: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.commands = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self.commands += 1
        index = len(self.spans)
        record = Span(name, time.perf_counter(), index, parent, self.commands)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, func, after=None):
        """`func` inside a span; `after(span, args, result)` may annotate it."""
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = func(*args, **kwargs)
            if after is not None:
                after(record, args, kwargs, result)
            return result
        return traced

    def named(self, name: str) -> list:
        return [s for s in self.spans if s.name == name]

    def children(self) -> dict:
        """Direct child spans by parent index."""
        kids = {}
        for s in self.spans:
            kids.setdefault(s.parent, []).append(s)
        return kids

    def write(self, path: Path) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.command] for s in self.spans]
        path.write_text(json.dumps({"columns": ["name", "start", "end", "parent", "command"],
                                    "spans": rows}) + "\n")


def _captured_stream(record, args, kwargs, stream):
    record.data["stream"] = stream


def _replication_done(record, args, kwargs, out):
    config, master_seed, index = args[:3]
    layout = kwargs.get("layout", args[3] if len(args) > 3 else None)
    record.data.update(out=out, config=config, seed=master_seed, index=index,
                       layout=layout or ResourceLayout.symmetric(config))


def _report_written(record, args, kwargs, result):
    record.data["bytes"] = Path(args[0]).stat().st_size


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace each traced name where it is looked up; restore on exit."""
    patches = [
        (cli, "load_config", "cli.load_config", None),
        (cli, "run_replications", "model.run_replications", None),
        (cli, "run_optimize", "optimizer.optimize", None),
        (cli, "summarize", "analysis.summarize", None),
        (cli, "write_csv", "reporting.write_csv", _report_written),
        (cli, "write_json", "reporting.write_json", _report_written),
        (optimizer.Evaluator, "evaluate", "optimizer.evaluate", None),
        (optimizer, "run_replications", "model.run_replications", None),
        (optimizer, "summarize", "analysis.summarize", None),
        (analysis, "t_quantile", "analysis.t_quantile", None),
        (model, "run_replication", "model.run_replication", _replication_done),
        (model, "stream_create", "rng.stream_create", _captured_stream),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
    try:
        for owner, attr, name, after in patches:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), after))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def tail(values: list) -> tuple:
    """(value, percentile) at the highest percentile of `values` that has at
    least ten samples beyond it; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11 if n >= 11 else n - 1
    return ordered[k], 100.0 * (k + 1) / n


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _self_seconds(span: Span, kids: dict) -> float:
    """Duration minus the time covered by direct child spans (the traced run
    is single-threaded, so children never overlap)."""
    return span.seconds - sum(c.seconds for c in kids.get(span.index, ()))


def _queue_keys(data: dict) -> list:
    """Identity of the 4 per-replication queue simulations of one replication:
    dispensers and manual operatives at A and B, in one key space."""
    config, layout = data["config"], data["layout"]
    space = (config.crn_mode, data["seed"], data["index"])
    keys = []
    for point in model.POINTS:
        keys.append((space, point, "dispenser", layout.capacity("dispenser", point)))
        keys.append((space, point, "manual", layout.capacity("skilled", point),
                     layout.capacity("unskilled", point)))
    return keys


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from a traced run, as name -> (value, unit)."""
    kids = tracer.children()
    reps = tracer.named("model.run_replication")
    commands = max(1, tracer.commands)
    streams = [s.data["stream"] for s in tracer.named("rng.stream_create")]
    draws = sum(s.draws_taken for s in streams)
    buffer = getattr(rng, "_BUFFER", None)
    outs = [s.data["out"] for s in reps]
    events = sum(o.arrivals + o.completions for o in outs)
    rep_seconds = [s.seconds for s in reps]

    seen, repeated, total = set(), 0, 0
    for span in reps:
        for key in _queue_keys(span.data):
            total += 1
            repeated += key in seen
            seen.add(key)

    evaluations = [s for s in tracer.named("optimizer.evaluate")
                   if any(c.name == "model.run_replications" for c in kids.get(s.index, ()))]
    top = [s for s in tracer.spans if s.parent is None]
    writes = {}
    for s in tracer.spans:
        if s.name.startswith("reporting.write_"):
            total_s, total_b = writes.get(s.command, (0.0, 0))
            writes[s.command] = (total_s + s.seconds, total_b + s.data["bytes"])
    n = len(rep_seconds)
    metrics = {
        "rng.streams_per_rep": (len(streams) / max(1, n), "count"),
        "rng.draws_per_rep": (draws / max(1, n), "count"),
        "model.rep_ms_p50": (_median(rep_seconds) * 1e3, "ms"),
        "model.rep_ms_tail": (tail(rep_seconds)[0] * 1e3 if n else 0.0, "ms"),
        "model.rep_self_ms": (_median([_self_seconds(s, kids) for s in reps]) * 1e3, "ms"),
        "model.events_per_rep": (events / max(1, n), "count"),
        "model.events_per_s": (events / sum(rep_seconds) if n else 0.0, "1/s"),
        "model.batch_calls_per_command": (
            len(tracer.named("model.run_replications")) / commands, "count"),
        "model.unserved_share": (
            sum(o.in_system_at_end for o in outs) / max(1, sum(o.arrivals for o in outs)),
            "ratio"),
        "optimizer.evals_per_command": (len(evaluations) / commands, "count"),
        "optimizer.evaluate_ms_p50": (_median([s.seconds for s in evaluations]) * 1e3, "ms"),
        "optimizer.evaluate_self_ms": (
            _median([_self_seconds(s, kids) for s in evaluations]) * 1e3, "ms"),
        "optimizer.repeated_queue_share": (repeated / max(1, total), "ratio"),
        "analysis.summarize_us": (
            _median([s.seconds for s in tracer.named("analysis.summarize")]) * 1e6, "us"),
        "analysis.t_quantile_us": (
            _median([s.seconds for s in tracer.named("analysis.t_quantile")]) * 1e6, "us"),
        "cli.load_config_ms": (
            _median([s.seconds for s in tracer.named("cli.load_config")]) * 1e3, "ms"),
        "cli.self_ms": (_median([_self_seconds(s, kids) for s in top]) * 1e3, "ms"),
        "reporting.write_ms": (_median([w[0] for w in writes.values()]) * 1e3, "ms"),
        "reporting.bytes": (_median([w[1] for w in writes.values()]), "bytes"),
    }
    if buffer:
        generated = sum(math.ceil(s.draws_taken / buffer) * buffer for s in streams)
        metrics["rng.draw_yield"] = (draws / generated if generated else 0.0, "ratio")
    return metrics
