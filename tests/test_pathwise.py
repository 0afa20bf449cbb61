"""Relations that hold on every sample path of the engine, whatever the draws."""

import math
from dataclasses import replace

import pytest
from test_engine_oracle import SWEEP_CASES
from test_trace import record_queues

import crossdock_sim.model as model_mod
from crossdock_sim import ResourceLayout, build_model, run_replication

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
    other field."""
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
