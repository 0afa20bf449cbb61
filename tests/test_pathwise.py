"""Relations that hold on every sample path of the engine, whatever the
draws, and the mean dispenser wait that queueing theory gives."""

import math
from dataclasses import replace

import pytest
from test_engine_oracle import SWEEP_CASES
from test_trace import record_queues

import crossdock_sim.model as model_mod
from crossdock_sim import ResourceLayout, build_model, run_replication, summarize

# busy time is a sum of rounded interval lengths, the bounds sums of durations
REL_TOL = 1e-9


def grant_times(config, seed, layout, pool) -> dict:
    """Order id -> the time the order was granted a unit of `pool`."""
    log = run_replication(config, seed, 0, layout, collect_log=True).log
    return {row[2]: row[0] for row in log if row[1] == "grant" and row[3] == pool}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_more_dispensers_never_delay_a_grant(fast_config, seed):
    """Dispensers at A go from 1 to 2 to 3: no order is granted one later.
    The c-server FIFO recursion of Kiefer and Wolfowitz is monotone in c."""
    base = ResourceLayout.symmetric(fast_config)
    grants = [grant_times(fast_config, seed, replace(base, dispensers_A=c), "dispenser_A")
              for c in (1, 2, 3)]
    for fewer, more in zip(grants, grants[1:]):
        assert fewer.keys() <= more.keys()
        assert all(more[i] <= t for i, t in fewer.items())
    # a queue formed at one dispenser, so the relation was put to the test
    assert any(grants[-1][i] < t for i, t in grants[0].items())


def test_dispenser_mean_wait_matches_pollaczek_khinchine(paper_config):
    """At paper-base rates each dispenser is an M/G/1 queue: Poisson orders
    at lambda = 0.05/min, services triangular (1, 2, 4) with E[S] = 7/3 and
    E[S^2] = 35/6, so rho = 7/60 and the mean wait in queue is
    Wq = lambda E[S^2] / (2 (1 - rho)) = 0.1651 min. Each replication's mean
    wait at dispenser_A is its orders' grant time minus arrival time; an
    order not granted by the horizon has its wait cut off there.
    Start-up bias: the queue starts empty and relaxes within about
    E[S] / (1 - sqrt(rho))^2 = 5.4 min, so only the first few of some 1,440
    orders a replication see a queue emptier than steady state, and the
    cut-off touches the few waiting at the end; both shift the mean by far
    less than the tolerance, 3 standard errors over 40 replications."""
    lam, mean, second = 0.05, 7 / 3, 35 / 6
    wq = lam * second / (2 * (1 - lam * mean))
    waits = []
    for index in range(40):
        log = run_replication(paper_config, 12345, index, collect_log=True).log
        arrived = {order: time for time, kind, order, *_ in log if kind == "arrival"}
        queued = {order for _, kind, order, pool, *_ in log
                  if kind == "enqueue" and pool == "dispenser_A"}
        granted = {order: time for time, kind, order, pool, *_ in log
                   if kind == "grant" and pool == "dispenser_A"}
        orders = queued | granted.keys()
        waits.append(math.fsum(granted.get(order, paper_config.horizon) - arrived[order]
                               for order in orders) / len(orders))
    stats = summarize(waits)
    assert abs(stats.mean - wq) <= 3 * stats.sd / math.sqrt(40)


@pytest.mark.parametrize("totals", [None, (1, 1), (2, 3), (6, 4)])
@pytest.mark.parametrize("mean", [5.0, 1.0])  # at 1.0 small pools saturate
def test_busy_time_bounded_by_capacity_and_routed_work(fast_config, monkeypatch,
                                                       totals, mean):
    """Each pool is busy at most capacity x horizon, and at most the work
    routed to it: a point's dispensers its orders' base durations, its two
    manual pools together `unskilled_factor` x theirs."""
    queues = record_queues(monkeypatch)
    config = replace(fast_config, arrival=replace(fast_config.arrival, mean=mean))
    layout = ResourceLayout.from_totals(*totals) if totals else None
    out = run_replication(config, 4, 0, layout)
    layout = build_model(config, layout)
    capacity = {name: layout.capacity(*name.split("_")) for name in out.pools}
    work = {queue: math.fsum(duration for *_, duration in orders)
            for queue, orders in queues.items()}
    busy = {name: stats.busy_time for name, stats in out.pools.items()}
    for name in busy:
        assert busy[name] <= capacity[name] * config.horizon * (1 + REL_TOL)
    for point in "AB":
        assert busy[f"dispenser_{point}"] <= work[f"dispenser_{point}"] * (1 + REL_TOL)
        manual = busy[f"skilled_{point}"] + busy[f"unskilled_{point}"]
        assert manual <= config.unskilled_factor * work[f"manual_{point}"] * (1 + REL_TOL)


@pytest.mark.parametrize("config, layout, chunk, seed, index", SWEEP_CASES,
                         ids=[f"case{i}" for i in range(len(SWEEP_CASES))])
def test_accounting_recounted_from_event_log(monkeypatch, config, layout, chunk, seed,
                                             index):
    """Each pool's grants and busy time, and the completions, recounted from
    the event log equal the run's bit for bit. A pool's busy time is the sum,
    in order-id order, of each grant's completion time (else the horizon)
    minus its grant time. Without the log the run is the same in every
    other field. Little's law per queue: the logged queue length integrated
    over [0, horizon] is the time its orders waited, each from its enqueue
    to its grant, else to the horizon."""
    monkeypatch.setattr(model_mod, "_CHUNK", chunk)
    out = run_replication(config, seed, index, layout, collect_log=True)
    granted = {name: {} for name in out.pools}  # pool -> order id -> grant time
    completed = {}  # order id -> completion time
    for time, kind, order, pool, *_ in out.log:
        if kind == "grant":
            granted[pool][order] = time
        elif kind == "complete":
            completed[order] = time
    for name, grants in granted.items():
        busy = 0.0
        for order in sorted(grants):
            busy += completed.get(order, config.horizon) - grants[order]
        assert (out.pools[name].grants, out.pools[name].busy_time) == (len(grants), busy)
    assert out.completions == len(completed)
    assert replace(out, log=None) == run_replication(config, seed, index, layout)
    # a pool's rows count under its queue; a time's last row sets the length
    queues = [f"{kind}_{point}" for kind in ("manual", "dispenser") for point in "AB"]
    length, since = dict.fromkeys(queues, 0), dict.fromkeys(queues, 0.0)
    area, waited = dict.fromkeys(queues, 0.0), dict.fromkeys(queues, 0.0)
    grant_time = {order: time for grants in granted.values() for order, time in grants.items()}
    for time, kind, order, pool, queued, _ in out.log:
        if kind == "arrival":
            continue
        queue = pool if pool.startswith("dispenser") else f"manual_{pool[-1]}"
        area[queue] += length[queue] * (time - since[queue])
        length[queue], since[queue] = queued, time
        if kind == "enqueue":
            waited[queue] += grant_time.get(order, config.horizon) - time
    for queue in queues:
        area[queue] += length[queue] * (config.horizon - since[queue])
        assert area[queue] == pytest.approx(waited[queue], rel=REL_TOL)
