"""Crossdock order-picking model.

Orders arrive with exponential interarrival times and are routed to one
of two picking points (A, B) for either manual or automated fulfillment.
Manual orders prefer an idle skilled operative, fall back to an idle
unskilled one (slower by a fixed factor), and otherwise wait in the
point's shared manual FIFO queue. Automated orders queue at the point's
dispenser pool. The output measure is Total Usage Cost: busy, idle and
per-use charges summed over every resource pool.

Every stochastic draw belongs to one named source; in dedicated-streams
mode each source owns its own stream (the CRN discipline), in
default-stream mode all sources share one. Service times are drawn at
arrival so per-stream draw sequences do not depend on resource counts.
"""

from __future__ import annotations

import contextlib
import heapq
import math
import os
from collections import Counter, defaultdict, deque
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .errors import ConfigurationError
from .kernel import EventCalendar
from .rng import SHARED_SOURCE, SOURCE_IDS, stream_create, triangular_inverse

POINTS = ("A", "B")
RESOURCE_CLASSES = ("skilled", "unskilled", "dispenser")

# Config fields an optimizer may vary; everything else is part of the
# experimental frame and must match across compared alternatives.
DECISION_FIELDS = ("skilled_per_point", "unskilled_per_point", "dispensers_per_point")

CRN_MODES = ("default_stream", "dedicated_streams")

# A replication handles about horizon / arrival.mean arrivals, each in
# Python; a config that expects more (this many take seconds per
# replication) is rejected as a mistake rather than run.
MAX_EXPECTED_ARRIVALS = 1e7
_CHUNK = 1 << 16  # most orders whose trace is held at once

# Upper bounds of every real-valued field and of every unit count. A
# pool's charge is then at most rate x units x horizon = 1e100 x 1e5 x
# 1e100 ~ 1e205 (and per_use x arrivals far less), so Total Usage Cost
# stays finite; a triangle's (max - min)^2 is at most 1e200; and setting
# up a pool of 1e5 units takes well under a second.
MAX_VALUE = 1e100
MAX_UNITS = 10**5


@dataclass(frozen=True)
class Number:
    """A numeric config field: a JSON number, never a bool or a string,
    within [low, high]; `positive` excludes low itself."""

    integer: bool = False
    low: float = 0.0
    high: float = MAX_VALUE
    positive: bool = False

    def problem(self, value) -> str | None:
        """What is wrong with `value` for this field, or None."""
        if isinstance(value, bool) or not isinstance(value, int if self.integer else (int, float)):
            return "must be an integer" if self.integer else "must be a number"
        # False for nan and inf; exact for ints of any size
        if self.low <= value <= self.high and not (self.positive and value == self.low):
            return None
        return f"must be in {'(' if self.positive else '['}{self.low:g}, {self.high:g}]"


_REAL = Number()
_POSITIVE = Number(positive=True)
_PROBABILITY = Number(high=1.0)
_COUNT = Number(integer=True, high=MAX_UNITS)


def _rule(rule):
    """A config field that accepts what `rule` allows: a Number, a tuple of
    the strings the field may take, or a config dataclass (a JSON object
    with exactly its fields). The field's name is its JSON key."""
    return field(metadata={"rule": rule})


@dataclass(frozen=True)
class Exponential:
    kind: str = _rule(("exponential",))
    mean: float = _rule(_POSITIVE)


@dataclass(frozen=True)
class Triangular:
    kind: str = _rule(("triangular",))
    min: float = _rule(_REAL)
    mode: float = _rule(_REAL)
    max: float = _rule(_REAL)


@dataclass(frozen=True)
class ClassRates:
    busy_rate: float = _rule(_REAL)  # currency per busy unit-hour
    idle_rate: float = _rule(_REAL)  # currency per idle unit-hour
    per_use: float = _rule(_REAL)  # currency per grant


@dataclass(frozen=True)
class CostRates:
    skilled: ClassRates = _rule(ClassRates)
    unskilled: ClassRates = _rule(ClassRates)
    dispenser: ClassRates = _rule(ClassRates)

    def for_class(self, resource_class: str) -> ClassRates:
        return getattr(self, resource_class)


def _check(rule, value, path: str, problems: list, built: bool = False):
    """Check `value` against `rule`, appending one message per bad field,
    named by its dotted path. `value` is JSON, or with `built` a config
    dataclass whose objects must be instances of their rules. Returns the
    value, as dicts for objects and with JSON integers turned to floats in
    real-valued fields, or None where it is bad."""
    at = f"{path}: " if path else ""
    if isinstance(rule, type):  # a config dataclass; Number is an instance
        if not isinstance(value, rule if built else dict):
            problems.append(f"{at}expected {rule.__name__ if built else 'an object'}")
            return None
        if built:
            value = vars(value)
        names = {f.name for f in fields(rule)}
        unknown = set(value) - names
        if unknown:
            problems.append(f"{at}unknown fields {sorted(unknown)}")
        missing = names - set(value)
        if missing:
            problems.append(f"{at}missing fields {sorted(missing)}")
        return {f.name: _check(f.metadata["rule"], value[f.name],
                               f"{path}.{f.name}" if path else f.name, problems, built)
                for f in fields(rule) if f.name in value}
    if isinstance(rule, tuple):
        if value in rule:
            return value
        problems.append(f"{at}must be one of {rule}")
        return None
    problem = rule.problem(value)
    if problem:
        problems.append(at + problem)
        return None
    return value if rule.integer else float(value)


def _build(rule, value):
    """A value that `_check` passed, its objects made config dataclasses."""
    if not isinstance(rule, type):
        return value
    return rule(**{f.name: _build(f.metadata["rule"], value[f.name]) for f in fields(rule)})


def _parse(data, built: bool = False) -> dict:
    """Check a config (see `_check`) field by field, then the rules that
    join fields, and raise every problem found. Returns the checked dict."""
    problems = []
    checked = _check(ModelConfig, data, "", problems, built) or {}
    for name in ("manual_service", "auto_service"):
        tri = checked.get(name) or {}
        low, mode, high = (tri.get(key) for key in ("min", "mode", "max"))
        if None in (low, mode, high):
            continue
        if not (low <= mode <= high and low < high):
            problems.append(f"{name}.min, {name}.mode, {name}.max: triangular needs "
                            "min <= mode <= max with min < max")
    mean = (checked.get("arrival") or {}).get("mean")
    horizon = checked.get("horizon")
    arrivals = horizon / mean if mean and horizon else None
    if arrivals and arrivals > MAX_EXPECTED_ARRIVALS:
        problems.append(f"arrival.mean, horizon: horizon / arrival.mean expects "
                        f"{arrivals:.3g} arrivals, more than {MAX_EXPECTED_ARRIVALS:g}")
    if problems:
        raise ConfigurationError("config: " + "; ".join(problems))
    return checked


@dataclass(frozen=True)
class ModelConfig:
    """Full parameterization of the crossdock model.

    Times are simulation minutes; rates are currency per hour. The three
    *_per_point counts describe the symmetric baseline layout; the
    optimizer overrides them with an explicit `ResourceLayout`. The fields
    and their rules are the config file's schema; every instance obeys them.
    """

    arrival: Exponential = _rule(Exponential)
    manual_service: Triangular = _rule(Triangular)
    auto_service: Triangular = _rule(Triangular)
    unskilled_factor: float = _rule(Number(low=1.0))
    p_auto: float = _rule(_PROBABILITY)
    p_point_A: float = _rule(_PROBABILITY)
    skilled_per_point: int = _rule(_COUNT)
    unskilled_per_point: int = _rule(_COUNT)
    dispensers_per_point: int = _rule(_COUNT)
    cost_rates: CostRates = _rule(CostRates)
    horizon: float = _rule(_POSITIVE)
    crn_mode: str = _rule(CRN_MODES)

    def __post_init__(self):
        _parse(self, built=True)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        """Strict parse: unknown or missing fields are errors, and every
        problem found is reported in one message."""
        return _build(cls, _parse(data))

    def with_crn_mode(self, crn_mode: str) -> "ModelConfig":
        return replace(self, crn_mode=crn_mode)


@dataclass(frozen=True)
class ResourceLayout:
    """Per-point resource counts, checked when built; may be asymmetric."""

    skilled_A: int = _rule(_COUNT)
    skilled_B: int = _rule(_COUNT)
    unskilled_A: int = _rule(_COUNT)
    unskilled_B: int = _rule(_COUNT)
    dispensers_A: int = _rule(_COUNT)
    dispensers_B: int = _rule(_COUNT)

    def __post_init__(self):
        problems = []
        _check(ResourceLayout, self, "layout", problems, built=True)
        if problems:
            raise ConfigurationError("config: " + "; ".join(problems))

    @classmethod
    def symmetric(cls, config: ModelConfig) -> "ResourceLayout":
        s, u, d = (config.skilled_per_point, config.unskilled_per_point,
                   config.dispensers_per_point)
        return cls(s, s, u, u, d, d)

    @classmethod
    def from_totals(cls, dispensers: int, operatives: int) -> "ResourceLayout":
        """Distribute decision-variable totals over points.

        Dispensers go round-robin across points, A first. Operatives go
        round-robin over (A skilled, B skilled, A unskilled, B unskilled).
        """
        return cls(
            dispensers_A=(dispensers + 1) // 2,
            dispensers_B=dispensers // 2,
            skilled_A=(operatives + 3) // 4,
            skilled_B=(operatives + 2) // 4,
            unskilled_A=(operatives + 1) // 4,
            unskilled_B=operatives // 4,
        )

    def capacity(self, resource_class: str, point: str) -> int:
        prefix = {"dispenser": "dispensers"}.get(resource_class, resource_class)
        return getattr(self, f"{prefix}_{point}")


@dataclass(frozen=True)
class PoolStats:
    busy_time: float  # unit-minutes
    idle_time: float  # unit-minutes
    grants: int


@dataclass(frozen=True)
class ReplicationOutput:
    """One replication's cost plus audit counters."""

    total_usage_cost: float
    arrivals: int
    completions: int
    in_system_at_end: int
    pools: dict  # pool name -> PoolStats
    log: tuple | None = None  # optional event log, see run_replication


def total_usage_cost(pool_stats: dict, rates: CostRates) -> float:
    """Sum busy/idle/per-use charges over pools; times convert to hours.

    Pool names are "<class>_<point>", e.g. "skilled_A". The idle rate is
    charged on all unit time and the busy premium on busy time, so a flat
    rate (busy == idle) gives a cost that does not depend on how busy time
    rounds.
    """
    total = 0.0
    for name, stats in pool_stats.items():
        r = rates.for_class(name.rsplit("_", 1)[0])
        total += (
            r.idle_rate * (stats.busy_time + stats.idle_time) / 60.0
            + (r.busy_rate - r.idle_rate) * stats.busy_time / 60.0
            + r.per_use * stats.grants
        )
    return total


def run_replication(config: ModelConfig, master_seed: int, replication_index: int,
                    layout: ResourceLayout | None = None,
                    collect_log: bool = False) -> ReplicationOutput:
    """One terminating replication, a pure function of its arguments, run
    `_CHUNK` orders at a time. An order takes all its draws at arrival, so a
    chunk's trace (arrival times, types, points, service durations) is drawn
    as arrays whatever the layout; then each point's dispensers and its
    manual operatives serve their own orders."""
    layout = build_model(config, layout)
    horizon, mean = config.horizon, config.arrival.mean
    shared = config.crn_mode == "default_stream"
    s_arrival, s_type, s_point, *s_service = (
        [stream_create(master_seed, SHARED_SOURCE, replication_index)] * 7 if shared
        else [stream_create(master_seed, s, replication_index) for s in SOURCE_IDS])

    # one release time per unit, 0.0 at the start; a pool with no units
    # holds one that never frees
    capacity = {f"{cls}_{pt}": layout.capacity(cls, pt)
                for cls in RESOURCE_CLASSES for pt in POINTS}
    units = {name: EventCalendar() for name in capacity}
    for name, cal in units.items():
        for release in [0.0] * capacity[name] or [math.inf]:
            cal.schedule(release, name)
    # the four queues, in the order of their service streams
    queues = [(f"manual_{p}", config.manual_service, f"skilled_{p}", f"unskilled_{p}")
              for p in POINTS]
    queues += [(f"dispenser_{p}", config.auto_service, f"dispenser_{p}", None)
               for p in POINTS]
    busy, grants = dict.fromkeys(units, 0.0), dict.fromkeys(units, 0)
    orders = [] if collect_log else None
    arrivals = completions = 0

    t = -mean * math.log1p(-s_arrival.uniforms(1)[0])
    while t <= horizon:
        # the next k orders' arrival gaps, or in the default stream their
        # rows of (next gap, type, point, service); a few pass the horizon
        k = min(_CHUNK, int((horizon - t) / mean * 1.05) + 64)
        if shared:
            gap_u, type_u, point_u, service_u = s_arrival.uniforms(4 * k).reshape(k, 4).T
        else:
            gap_u = s_arrival.uniforms(k)
        # math.log1p one by one: np.log1p's doubles can differ from it
        gaps = np.fromiter(map(math.log1p, (-gap_u).tolist()), float, k) * -mean
        times = np.cumsum(np.concatenate(([t], gaps)))  # a sequential sum
        n = int(np.searchsorted(times[:k], horizon, "right"))  # arrived by the horizon
        # only the last chunk has orders past the horizon, and nothing draws
        # after them, so their draws are not counted
        s_arrival.draws_taken -= (k - n) * (4 if shared else 1)
        t = times[n]
        if not shared:
            type_u, point_u = s_type.uniforms(n), s_point.uniforms(n)
        queue_of = 2 * (type_u[:n] < config.p_auto) + (point_u[:n] >= config.p_point_A)
        if orders is not None:
            orders.extend([None] * n)
        for q, (queue, tri, first, second) in enumerate(queues):
            ids = np.flatnonzero(queue_of == q)
            u = service_u[ids] if shared else s_service[q].uniforms(len(ids))
            dur = triangular_inverse(u, tri.min, tri.mode, tri.max)
            arrived = zip((ids + arrivals + 1).tolist(), times[ids].tolist(), dur.tolist())
            start, slow = _serve(queue, arrived, units, (first, second),
                                 config.unskilled_factor, orders)
            start = np.fromiter(start, float, len(start))  # never falls: granted orders first
            granted = int(np.searchsorted(start, horizon, "right"))
            slow = np.array(slow, np.intp)
            slow = slow[:np.searchsorted(slow, granted)]
            dur[slow] *= config.unskilled_factor
            took = start[:granted] + dur[:granted]
            completions += int(np.count_nonzero(took <= horizon))
            took = np.minimum(took, horizon, out=took) - start[:granted]
            for name, part in ([(first, np.delete(took, slow)), (second, took[slow])]
                               if second else [(first, took)]):
                grants[name] += len(part)
                if len(part):  # summed in order, carrying on from the last chunk
                    part[0] += busy[name]
                    busy[name] = float(np.cumsum(part, out=part)[-1])
        arrivals += n

    pool_stats = {name: PoolStats(busy[name], capacity[name] * horizon - busy[name],
                                  grants[name])
                  for name in units}
    return ReplicationOutput(
        total_usage_cost=total_usage_cost(pool_stats, config.cost_rates),
        arrivals=arrivals,
        completions=completions,
        in_system_at_end=arrivals - completions,
        pools=pool_stats,
        log=_event_log(orders, horizon) if orders is not None else None,
    )


def _serve(queue: str, arrived, units: dict, names, factor: float, orders: list | None):
    """Serve one queue's `(id, arrival, duration)` orders in arrival order;
    returns their starts and the positions of the orders the second pool served.

    An order takes the unit that frees first, from max(arrival, release) to
    the end of its service (the c-server FIFO recursion of Kiefer and
    Wolfowitz). `names` is a point's (dispensers, None), or its (skilled,
    unskilled) operatives: an idle skilled one, else an idle unskilled one
    (slower by `factor`), else whichever frees first, skilled on a tie.
    `orders[id - 1]` gets the order's `(arrival, queue, pool, start, end)`.

    `units[name]` is a pool's calendar of release times. Each call drains it
    into a local list, which is a heap since the calendar pops in order,
    serves every order from the lists, and puts the releases into a fresh
    calendar: the drain moved the old one's clock to its last release. A
    dispenser pool of one unit (or none: its one entry never frees) is a
    single-server queue, served by Lindley's recursion on one release time."""
    first, second = names
    starts, slow = [], []
    cal = units[first]
    if second is None and len(cal) == 1:
        release = cal.next_event()[0]
        for i, t, dur in arrived:
            start = release if release > t else t
            starts.append(start)
            release = start + dur
            if orders is not None:
                orders[i - 1] = (t, queue, first, start, release)
        cal.schedule(release, first)
        return starts, slow
    # no second pool is one whose unit never frees
    h1, h2 = ([units[name].next_event()[0] for _ in range(len(units[name]))] if name
              else [math.inf] for name in names)
    for i, t, dur in arrived:
        heap, name = h1, first
        if h1[0] > t and h2[0] < h1[0]:
            heap, name = h2, second
            dur *= factor
            slow.append(len(starts))
        release = heap[0]
        start = release if release > t else t
        heapq.heapreplace(heap, start + dur)
        starts.append(start)
        if orders is not None:
            orders[i - 1] = (t, queue, name, start, start + dur)
    for name, heap in zip(names, (h1, h2)):
        if name:
            units[name] = cal = EventCalendar()
            for release in heap:
                cal.schedule(release, name)
    return starts, slow


def _event_log(orders: list, horizon: float) -> tuple:
    """Rows `(time, kind, order id, pool, queue length, busy units)` of the
    arrivals, enqueues, grants and completions up to the horizon.

    `orders[i]` is order i + 1's `(arrival, queue, pool, start, end)`:
    `queue` is "manual_<point>" or the dispenser pool. A unit freed at t
    serves an order arriving at t, so at one instant the completions, in
    the order they were scheduled, come before the arrival. A completion
    hands its unit to the first order waiting for that pool, which in a
    FIFO pool starts then. At a hand-off the completion's row shows the
    unit freed and the queue still waiting, the grant's row the queue
    after it.
    """
    busy, queued, log = Counter(), Counter(), []
    waiting = defaultdict(deque)  # pool -> ids of the orders waiting for it
    done = EventCalendar()

    def complete_until(until):
        while done.peek() <= until:
            t, pool, i = done.next_event()
            queue = orders[i - 1][1]
            busy[pool] -= 1
            log.append((t, "complete", i, pool, queued[queue], busy[pool]))
            if waiting[pool]:
                successor = waiting[pool].popleft()
                queued[queue] -= 1
                busy[pool] += 1
                log.append((t, "grant", successor, pool, queued[queue], busy[pool]))
                done.schedule(orders[successor - 1][4], pool, successor)

    for i, (t, queue, pool, start, end) in enumerate(orders, 1):
        complete_until(t)
        log.append((t, "arrival", i, "", 0, 0))
        if start == t:
            busy[pool] += 1
            log.append((t, "grant", i, pool, queued[queue], busy[pool]))
            done.schedule(end, pool, i)
        else:
            waiting[pool].append(i)
            queued[queue] += 1
            log.append((t, "enqueue", i, queue, queued[queue], busy[queue]))
    complete_until(horizon)
    return tuple(log)


def build_model(config: ModelConfig, layout: ResourceLayout | None = None) -> ResourceLayout:
    """The layout that `config`'s replications run: `layout`, else the
    config's symmetric one. Raises ConfigurationError when orders of a kind
    with positive probability have no resource at any point."""
    layout = layout or ResourceLayout.symmetric(config)
    problems = []
    if config.p_auto > 0 and not (layout.dispensers_A or layout.dispensers_B):
        problems.append("dispensers_per_point: automated orders have positive "
                        "probability but no dispenser exists at any point")
    if config.p_auto < 1 and not (layout.skilled_A or layout.skilled_B
                                  or layout.unskilled_A or layout.unskilled_B):
        problems.append("skilled_per_point, unskilled_per_point: manual orders have "
                        "positive probability but no operative exists at any point")
    if problems:
        raise ConfigurationError("config: " + "; ".join(problems))
    return layout


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def worker_pool(threads: int, executor=None):
    """Context manager for the worker pool that a command's batches share.

    Yields `executor` itself, left open, when one is given; else a new pool
    of `threads` worker processes, at most the usable CPUs, shut down and
    joined on exit; else None, at one worker, for running in process.
    """
    threads = min(threads, _usable_cpus())
    if executor is not None or threads <= 1:
        return contextlib.nullcontext(executor)
    from concurrent.futures import ProcessPoolExecutor  # multiprocessing only when needed
    return ProcessPoolExecutor(max_workers=threads)


def run_batch(tasks, threads: int = 1, executor=None) -> list:
    """Run replication tasks, each `(config, master_seed, index, layout)`,
    optionally followed by `collect_log`: the arguments of `run_replication`.

    They run in `executor`'s workers when one is given, else in a pool of
    `threads` workers started for this batch alone, else (threads <= 1 or
    one task) in process. Results come in task order whatever the worker
    scheduling, so output bytes never depend on the thread count.
    """
    tasks = list(tasks)
    for config, layout in dict.fromkeys((task[0], task[3]) for task in tasks):
        build_model(config, layout)  # fail fast, before any worker runs
    with worker_pool(threads if len(tasks) > 1 else 1, executor) as pool:
        if pool is None:
            return [run_replication(*task) for task in tasks]
        chunk = max(1, math.ceil(len(tasks) / (4 * min(threads, _usable_cpus()))))
        return list(pool.map(run_replication, *zip(*tasks), chunksize=chunk))


def run_replications(config: ModelConfig, master_seed: int, indices,
                     layout: ResourceLayout | None = None,
                     threads: int = 1, executor=None, collect_log: bool = False) -> list:
    """Run replications `indices` of one config and layout as one batch;
    see `run_batch` for where they run."""
    return run_batch([(config, master_seed, i, layout, collect_log) for i in indices],
                     threads, executor)
