"""The event-driven replication engine, kept as a differential oracle.

`run_oracle` runs the crossdock model as an event loop: one event calendar
of completions, the next arrival held beside it, and a `ResourcePool` per
resource class and point. Each point has two queues, manual (skilled,
then unskilled operatives) and dispenser, each with its pools in order of
preference and a FIFO list of waiting orders. A unit freed at t serves an
order arriving at t, so an arrival is handled only after every completion
due by its time. The model serves each order at arrival with a FIFO
recursion per pool instead; `tests/test_engine_oracle.py` checks that both
give the same counts, grants, logs and cost.
"""

from __future__ import annotations

from collections import deque

from crossdock_sim.kernel import EventCalendar, ResourcePool
from crossdock_sim.model import (
    POINTS,
    RESOURCE_CLASSES,
    PoolStats,
    ReplicationOutput,
    build_model,
    total_usage_cost,
)
from crossdock_sim.rng import (
    SHARED_SOURCE,
    SOURCE_IDS,
    exponential_inverse,
    stream_create,
    triangular_inverse,
)


def run_oracle(config, master_seed: int, replication_index: int, layout=None,
               collect_log: bool = False) -> ReplicationOutput:
    """`model.run_replication`, run by the event loop."""
    layout = build_model(config, layout)
    log = [] if collect_log else None

    def record(*row):
        if log is not None:
            log.append(row)

    if config.crn_mode == "default_stream":
        streams = dict.fromkeys(SOURCE_IDS, stream_create(master_seed, SHARED_SOURCE,
                                                          replication_index))
    else:
        streams = {s: stream_create(master_seed, s, replication_index) for s in SOURCE_IDS}
    s_arrival, s_type, s_point = (streams[s] for s in ("arrival", "order_type",
                                                       "point_choice"))
    pools = {f"{cls}_{p}": ResourcePool(f"{cls}_{p}", layout.capacity(cls, p))
             for cls in RESOURCE_CLASSES for p in POINTS}
    # (name, [(pool, service factor)] by preference, service triangle,
    # service stream, waiting (order id, base service) pairs), by (auto, point)
    factor = config.unskilled_factor
    queues = {}
    for p in POINTS:
        queues[False, p] = (f"manual_{p}",
                            [(pools[f"skilled_{p}"], 1.0), (pools[f"unskilled_{p}"], factor)],
                            config.manual_service, streams[f"manual_service_point_{p}"],
                            deque())
        queues[True, p] = (f"dispenser_{p}", [(pools[f"dispenser_{p}"], 1.0)],
                           config.auto_service, streams[f"auto_service_point_{p}"], deque())

    cal = EventCalendar()

    def grant(t, waiting, pool, scale, eid, base):
        pool.seize(eid, t)
        cal.schedule(t + base * scale, waiting, (pool, scale, eid))
        record(t, "grant", eid, pool.name, len(waiting), pool.busy_units)

    horizon = config.horizon
    arrivals = completions = 0
    t_next = exponential_inverse(s_arrival.uniform(), config.arrival.mean)
    while True:
        if cal.peek() <= min(t_next, horizon):
            t, waiting, (pool, scale, eid) = cal.next_event()
            completions += 1
            pool.release(t)
            record(t, "complete", eid, pool.name, len(waiting), pool.busy_units)
            if waiting:  # the freed unit takes the head of its queue
                grant(t, waiting, pool, scale, *waiting.popleft())
        elif t_next <= horizon:
            t = t_next
            arrivals += 1
            eid = arrivals
            t_next = t + exponential_inverse(s_arrival.uniform(), config.arrival.mean)
            auto = s_type.uniform() < config.p_auto
            point = "A" if s_point.uniform() < config.p_point_A else "B"
            name, preferred, tri, s_service, waiting = queues[auto, point]
            base = triangular_inverse(s_service.uniform(), tri.min, tri.mode, tri.max)
            record(t, "arrival", eid, "", 0, 0)
            free = [(pool, scale) for pool, scale in preferred
                    if pool.busy_units < pool.capacity]
            if free:
                grant(t, waiting, *free[0], eid, base)
            else:
                waiting.append((eid, base))
                # a manual queue is no pool: its rows show 0 busy units
                record(t, "enqueue", eid, name, len(waiting),
                       pools[name].busy_units if name in pools else 0)
        else:
            break

    pool_stats = {name: PoolStats(*pool.finalize_stats(horizon))
                  for name, pool in pools.items()}
    return ReplicationOutput(
        total_usage_cost=total_usage_cost(pool_stats, config.cost_rates),
        arrivals=arrivals,
        completions=completions,
        in_system_at_end=arrivals - completions,
        pools=pool_stats,
        log=tuple(log) if log is not None else None,
    )
