"""The event-driven replication engine, kept as a differential oracle.

`EventDrivenModel.run` is the crossdock model's former run loop: one
event calendar over arrivals and completions, a `ResourcePool` per
resource class and point, and a shared manual FIFO queue per point. The
model now serves each order at arrival with a FIFO recursion per pool;
`tests/test_engine_oracle.py` checks that both give the same counts,
grants, logs and cost.
"""

from __future__ import annotations

from crossdock_sim.kernel import EventCalendar, ResourcePool
from crossdock_sim.model import (
    POINTS,
    CrossdockModel,
    PoolStats,
    ReplicationOutput,
    build_model,
    total_usage_cost,
)
from crossdock_sim.rng import (
    SHARED_SOURCE,
    exponential_inverse,
    stream_create,
    triangular_inverse,
)

# event codes for the run loop
_ARRIVAL = 0
_MANUAL_DONE = 1
_AUTO_DONE = 2


class EventDrivenModel(CrossdockModel):
    """The model with its replications run by the event loop."""

    def run(self, master_seed: int, replication_index: int,
            collect_log: bool = False) -> ReplicationOutput:
        config = self.config
        log = [] if collect_log else None

        if config.crn_mode == "default_stream":
            shared = stream_create(master_seed, SHARED_SOURCE, replication_index)
            s_arrival = s_type = s_point = shared
            s_manual = {"A": shared, "B": shared}
            s_auto = {"A": shared, "B": shared}
        else:
            s_arrival = stream_create(master_seed, "arrival", replication_index)
            s_type = stream_create(master_seed, "order_type", replication_index)
            s_point = stream_create(master_seed, "point_choice", replication_index)
            s_manual = {
                p: stream_create(master_seed, f"manual_service_point_{p}", replication_index)
                for p in POINTS
            }
            s_auto = {
                p: stream_create(master_seed, f"auto_service_point_{p}", replication_index)
                for p in POINTS
            }

        skilled = {p: ResourcePool(f"skilled_{p}", self.layout.capacity("skilled", p))
                   for p in POINTS}
        unskilled = {p: ResourcePool(f"unskilled_{p}", self.layout.capacity("unskilled", p))
                     for p in POINTS}
        dispenser = {p: ResourcePool(f"dispenser_{p}", self.layout.capacity("dispenser", p))
                     for p in POINTS}
        manual_queue = {p: [] for p in POINTS}  # shared FIFO per point

        horizon = config.horizon
        arr_mean = config.arrival.mean
        m_lo, m_mode, m_hi = (config.manual_service.min,
                              config.manual_service.mode,
                              config.manual_service.max)
        a_lo, a_mode, a_hi = (config.auto_service.min,
                              config.auto_service.mode,
                              config.auto_service.max)
        factor = config.unskilled_factor
        p_auto = config.p_auto
        p_point_A = config.p_point_A

        cal = EventCalendar()
        arrivals = 0
        completions = 0

        cal.schedule(exponential_inverse(s_arrival.uniform(), arr_mean), _ARRIVAL)

        while True:
            ev = cal.next_event()
            if ev is None:
                break
            t, action, payload = ev
            if t > horizon:
                break
            if action == _ARRIVAL:
                arrivals += 1
                eid = arrivals
                cal.schedule(t + exponential_inverse(s_arrival.uniform(), arr_mean),
                             _ARRIVAL)
                auto = s_type.uniform() < p_auto
                point = "A" if s_point.uniform() < p_point_A else "B"
                if log is not None:
                    log.append((t, "arrival", eid, "", 0, 0))
                if auto:
                    svc = triangular_inverse(s_auto[point].uniform(), a_lo, a_mode, a_hi)
                    pool = dispenser[point]
                    if pool.seize((eid, svc), t):
                        cal.schedule(t + svc, _AUTO_DONE, (point, eid))
                        if log is not None:
                            log.append((t, "grant", eid, pool.name,
                                        len(pool.wait_queue), pool.busy_units))
                    elif log is not None:
                        log.append((t, "enqueue", eid, pool.name,
                                    len(pool.wait_queue), pool.busy_units))
                else:
                    base = triangular_inverse(s_manual[point].uniform(),
                                              m_lo, m_mode, m_hi)
                    sk = skilled[point]
                    un = unskilled[point]
                    if sk.busy_units < sk.capacity:
                        sk.seize(eid, t)
                        cal.schedule(t + base, _MANUAL_DONE, (point, sk, eid))
                        if log is not None:
                            log.append((t, "grant", eid, sk.name,
                                        len(manual_queue[point]), sk.busy_units))
                    elif un.busy_units < un.capacity:
                        un.seize(eid, t)
                        cal.schedule(t + base * factor, _MANUAL_DONE, (point, un, eid))
                        if log is not None:
                            log.append((t, "grant", eid, un.name,
                                        len(manual_queue[point]), un.busy_units))
                    else:
                        manual_queue[point].append((eid, base))
                        if log is not None:
                            log.append((t, "enqueue", eid, f"manual_{point}",
                                        len(manual_queue[point]), 0))
            elif action == _MANUAL_DONE:
                point, pool, eid = payload
                completions += 1
                pool.release(t)
                if log is not None:
                    log.append((t, "complete", eid, pool.name,
                                len(manual_queue[point]), pool.busy_units))
                queue = manual_queue[point]
                if queue:
                    # freed unit takes the queue head; duration depends on
                    # which class freed up
                    next_eid, base = queue.pop(0)
                    pool.seize(next_eid, t)
                    dur = base * factor if pool is unskilled[point] else base
                    cal.schedule(t + dur, _MANUAL_DONE, (point, pool, next_eid))
                    if log is not None:
                        log.append((t, "grant", next_eid, pool.name,
                                    len(queue), pool.busy_units))
            else:  # _AUTO_DONE
                point, eid = payload
                completions += 1
                pool = dispenser[point]
                granted = pool.release(t)
                if log is not None:
                    log.append((t, "complete", eid, pool.name,
                                len(pool.wait_queue), pool.busy_units))
                if granted is not None:
                    next_eid, svc = granted
                    cal.schedule(t + svc, _AUTO_DONE, (point, next_eid))
                    if log is not None:
                        log.append((t, "grant", next_eid, pool.name,
                                    len(pool.wait_queue), pool.busy_units))

        pool_stats = {}
        for pools in (skilled, unskilled, dispenser):
            for pool in pools.values():
                busy, idle, grants = pool.finalize_stats(horizon)
                pool_stats[pool.name] = PoolStats(busy, idle, grants)

        return ReplicationOutput(
            total_usage_cost=total_usage_cost(pool_stats, config.cost_rates),
            arrivals=arrivals,
            completions=completions,
            in_system_at_end=arrivals - completions,
            pools=pool_stats,
            log=tuple(log) if log is not None else None,
        )


def run_oracle(config, master_seed: int, replication_index: int, layout=None,
               collect_log: bool = False) -> ReplicationOutput:
    """`model.run_replication`, run by the event loop."""
    model = build_model(config, layout)
    return EventDrivenModel(model.config, model.layout).run(
        master_seed, replication_index, collect_log)
