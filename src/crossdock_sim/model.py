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
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property

from .errors import ConfigurationError
from .kernel import EventCalendar
from .rng import (
    SHARED_SOURCE,
    exponential_inverse,
    stream_create,
    triangular_inverse,
)

POINTS = ("A", "B")
RESOURCE_CLASSES = ("skilled", "unskilled", "dispenser")

# Config fields an optimizer may vary; everything else is part of the
# experimental frame and must match across compared alternatives.
DECISION_FIELDS = ("skilled_per_point", "unskilled_per_point", "dispensers_per_point")

CRN_MODES = ("default_stream", "dedicated_streams")

# A replication handles about horizon / arrival.mean arrivals, each in
# Python; a config that expects more than this would run for hours per
# replication, so it is rejected as a mistake rather than run.
MAX_EXPECTED_ARRIVALS = 1e7

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


def _check(rule, value, path: str, problems: list):
    """Check `value` against `rule`, appending one message per bad field,
    named by its dotted path. Returns the value, as dicts for objects and
    with JSON integers turned to floats in real-valued fields, or None
    where it is bad."""
    at = f"{path}: " if path else ""
    if isinstance(rule, type):  # a config dataclass; Number is an instance
        if not isinstance(value, dict):
            problems.append(f"{at}expected an object")
            return None
        names = {f.name for f in fields(rule)}
        unknown = set(value) - names
        if unknown:
            problems.append(f"{at}unknown fields {sorted(unknown)}")
        missing = names - set(value)
        if missing:
            problems.append(f"{at}missing fields {sorted(missing)}")
        return {f.name: _check(f.metadata["rule"], value[f.name],
                               f"{path}.{f.name}" if path else f.name, problems)
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


def _parse(data) -> tuple[dict, list[str]]:
    """Check a config dict field by field, then the rules that join fields.
    Returns the checked dict and every problem found."""
    problems = []
    checked = _check(ModelConfig, data, "", problems) or {}
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
    return checked, problems


@dataclass(frozen=True)
class ModelConfig:
    """Full parameterization of the crossdock model.

    Times are simulation minutes; rates are currency per hour. The three
    *_per_point counts describe the symmetric baseline layout; the
    optimizer overrides them with an explicit `ResourceLayout`. The
    fields and their rules are the config file's schema.
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

    def validate(self) -> list[str]:
        """Every problem with this config, or []. Found once per config (it
        is frozen), so a batch of replications does not repeat the walk."""
        return list(self._problems)

    @cached_property
    def _problems(self) -> tuple:
        return tuple(_parse(self.to_dict())[1])

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        """Strict parse: unknown or missing fields are errors, and every
        problem found is reported in one message."""
        checked, problems = _parse(data)
        if problems:
            raise ConfigurationError("config: " + "; ".join(problems))
        return _build(cls, checked)

    def with_crn_mode(self, crn_mode: str) -> "ModelConfig":
        return replace(self, crn_mode=crn_mode)


@dataclass(frozen=True)
class ResourceLayout:
    """Per-point resource counts; may be asymmetric."""

    skilled_A: int = _rule(_COUNT)
    skilled_B: int = _rule(_COUNT)
    unskilled_A: int = _rule(_COUNT)
    unskilled_B: int = _rule(_COUNT)
    dispensers_A: int = _rule(_COUNT)
    dispensers_B: int = _rule(_COUNT)

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
        if dispensers < 0 or operatives < 0:
            raise ConfigurationError("resource totals must be >= 0")
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

    def manual_total(self) -> int:
        return self.skilled_A + self.skilled_B + self.unskilled_A + self.unskilled_B

    def dispenser_total(self) -> int:
        return self.dispensers_A + self.dispensers_B


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


class CrossdockModel:
    """Executable model: validated config plus a concrete resource layout."""

    def __init__(self, config: ModelConfig, layout: ResourceLayout):
        self.config = config
        self.layout = layout

    def pool_capacities(self) -> dict:
        return {
            f"{cls}_{pt}": self.layout.capacity(cls, pt)
            for cls in RESOURCE_CLASSES
            for pt in POINTS
        }

    def run(self, master_seed: int, replication_index: int,
            collect_log: bool = False) -> ReplicationOutput:
        """One replication, each order served as it arrives.

        An order takes all its draws at arrival, so each pool is a FIFO
        queue fed by the order stream alone. A pool is a calendar of its
        units' release times: an order takes the unit that frees first and
        holds it from max(arrival, release) to the end of its service (the
        c-server FIFO recursion of Kiefer and Wolfowitz).
        """
        config = self.config

        def stream(source):
            return stream_create(master_seed, source, replication_index)

        if config.crn_mode == "default_stream":
            s_arrival = s_type = s_point = stream(SHARED_SOURCE)
            s_manual = s_auto = dict.fromkeys(POINTS, s_arrival)
        else:
            s_arrival, s_type, s_point = map(stream, ("arrival", "order_type", "point_choice"))
            s_manual = {p: stream(f"manual_service_point_{p}") for p in POINTS}
            s_auto = {p: stream(f"auto_service_point_{p}") for p in POINTS}

        horizon, arr_mean, factor = config.horizon, config.arrival.mean, config.unskilled_factor
        p_auto, p_point_A = config.p_auto, config.p_point_A
        manual, automated = config.manual_service, config.auto_service
        m_lo, m_mode, m_hi = manual.min, manual.mode, manual.max
        a_lo, a_mode, a_hi = automated.min, automated.mode, automated.max

        # one 0.0 entry per unit, its payload the id of the order that last
        # held the unit; a pool with no units holds one that never frees
        capacity = self.pool_capacities()
        units = {name: EventCalendar() for name in capacity}
        for name, cal in units.items():
            for _ in range(capacity[name]):
                cal.schedule(0.0, name)
            if not capacity[name]:
                cal.schedule(math.inf, name)
        skilled, unskilled, dispenser = (
            {p: units[f"{cls}_{p}"] for p in POINTS} for cls in RESOURCE_CLASSES)
        busy = dict.fromkeys(units, 0.0)
        grants = dict.fromkeys(units, 0)
        orders = [] if collect_log else None
        arrivals = completions = 0

        t = exponential_inverse(s_arrival.uniform(), arr_mean)
        while t <= horizon:
            arrivals += 1
            next_t = t + exponential_inverse(s_arrival.uniform(), arr_mean)
            auto = s_type.uniform() < p_auto
            point = "A" if s_point.uniform() < p_point_A else "B"
            if auto:
                dur = triangular_inverse(s_auto[point].uniform(), a_lo, a_mode, a_hi)
                pool = dispenser[point]
            else:
                dur = triangular_inverse(s_manual[point].uniform(), m_lo, m_mode, m_hi)
                pool = skilled[point]
                # an idle skilled operative, else an idle unskilled one,
                # else whichever frees first, skilled on a tie
                skilled_free = pool.peek()
                if skilled_free > t and unskilled[point].peek() < skilled_free:
                    pool = unskilled[point]
                    dur *= factor
            release, name, holder = pool.next_event()
            start = release if release > t else t
            end = start + dur
            pool.schedule(end, name, arrivals)
            if start <= horizon:
                grants[name] += 1
                busy[name] += (end if end < horizon else horizon) - start
                completions += end <= horizon
            if orders is not None:
                queue = f"dispenser_{point}" if auto else f"manual_{point}"
                orders.append((t, queue, name, start, end, holder if release > t else None))
            t = next_t

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


def _event_log(orders: list, horizon: float) -> tuple:
    """Rows `(time, kind, order id, pool, queue length, busy units)` of the
    arrivals, enqueues, grants and completions up to the horizon.

    `orders[i]` is order i + 1's `(arrival, queue, pool, start, end,
    freed_by)`: `queue` is "manual_<point>" or the dispenser pool, and
    `freed_by` the order whose completion handed over the unit, or None.
    Rows come in event-loop order: by time, then by when the event was
    scheduled (an arrival at the one before it, a completion at its start).
    """
    handoff = {freed_by: i for i, (*_, freed_by) in enumerate(orders, 1) if freed_by}
    busy, queued, log = Counter(), Counter(), []
    events = EventCalendar()
    if orders:
        events.schedule(orders[0][0], "arrival", 1)
    while (event := events.next_event()) is not None and event[0] <= horizon:
        t, kind, i = event
        _, queue, pool, start, end, _ = orders[i - 1]
        if kind == "arrival":
            log.append((t, "arrival", i, "", 0, 0))
            if i < len(orders):
                events.schedule(orders[i][0], "arrival", i + 1)
            if start == t:
                busy[pool] += 1
                log.append((t, "grant", i, pool, queued[queue], busy[pool]))
                events.schedule(end, "complete", i)
            else:
                queued[queue] += 1
                log.append((t, "enqueue", i, queue, queued[queue], busy[queue]))
            continue
        # a dispenser's row shows the queue after a hand-off, a manual
        # pool's row the unit freed before it
        successor = handoff.get(i)
        if successor and queue == pool:
            queued[queue] -= 1
        else:
            busy[pool] -= 1
        log.append((t, "complete", i, pool, queued[queue], busy[pool]))
        if successor:
            if queue != pool:
                queued[queue] -= 1
                busy[pool] += 1
            log.append((t, "grant", successor, pool, queued[queue], busy[pool]))
            events.schedule(orders[successor - 1][4], "complete", successor)
    return tuple(log)


def build_model(config: ModelConfig, layout: ResourceLayout | None = None) -> CrossdockModel:
    """Validate config (and optional layout override) into an executable
    model. Raises ConfigurationError listing every violated field."""
    problems = config.validate()
    if not problems:
        layout = layout or ResourceLayout.symmetric(config)
        _check(ResourceLayout, vars(layout), "layout", problems)
    if not problems:  # the totals below need counts that passed
        if config.p_auto > 0 and layout.dispenser_total() == 0:
            problems.append(
                "dispensers_per_point: automated orders have positive probability "
                "but no dispenser exists at any point"
            )
        if config.p_auto < 1 and layout.manual_total() == 0:
            problems.append(
                "skilled_per_point, unskilled_per_point: manual orders have positive "
                "probability but no operative exists at any point"
            )
    if problems:
        raise ConfigurationError("config: " + "; ".join(problems))
    return CrossdockModel(config, layout)


def run_replication(config: ModelConfig, master_seed: int, replication_index: int,
                    layout: ResourceLayout | None = None,
                    collect_log: bool = False) -> ReplicationOutput:
    """One terminating replication; a pure function of its arguments."""
    return build_model(config, layout).run(master_seed, replication_index, collect_log)


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
