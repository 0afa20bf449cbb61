"""The model's engine against the event-driven loop it replaced
(`event_oracle.py`), and both against a closed form."""

from dataclasses import replace

import pytest
from event_oracle import run_oracle

from crossdock_sim import ResourceLayout, run_replication, summarize
from crossdock_sim.optimizer import Bounds


def assert_same_run(new, old):
    assert (new.arrivals, new.completions, new.in_system_at_end) == (
        old.arrivals, old.completions, old.in_system_at_end)
    assert {name: s.grants for name, s in new.pools.items()} == {
        name: s.grants for name, s in old.pools.items()}
    assert new.log == old.log
    assert new.total_usage_cost == pytest.approx(old.total_usage_cost, rel=1e-12, abs=0)


@pytest.mark.parametrize("crn_mode", ["dedicated_streams", "default_stream"])
def test_engine_matches_event_loop_on_every_layout(fast_config, crn_mode):
    """Every `from_totals` layout of Bounds(6, 5), zero-capacity pools at B
    included, at 2 seeds x 2 replications."""
    config = fast_config.with_crn_mode(crn_mode)
    kinds = set()
    for point in Bounds(6, 5).all_points():
        layout = ResourceLayout.from_totals(*point)
        for seed in (1, 7):
            for index in (0, 1):
                new = run_replication(config, seed, index, layout, collect_log=True)
                assert_same_run(new, run_oracle(config, seed, index, layout,
                                                collect_log=True))
                kinds.update((row[1], row[3].split("_")[0]) for row in new.log)
    # queues formed and were served at both kinds of pool
    assert {("enqueue", "dispenser"), ("enqueue", "manual"),
            ("grant", "dispenser"), ("grant", "unskilled")} <= kinds


def test_engine_matches_event_loop_at_paper_horizon(paper_config):
    assert_same_run(run_replication(paper_config, 12345, 3, collect_log=True),
                    run_oracle(paper_config, 12345, 3, collect_log=True))


def all_auto_expected_cost(config) -> float:
    """Expected Total Usage Cost when every order is automated and each
    point has one dispenser: the idle rate on every unit for the whole
    horizon, plus the busy premium on each dispenser's expected busy time.
    That is the work arrived, lambda E[S] T, less the work still in the
    M/G/1 queue at the end, its Pollaczek-Khinchine mean
    lambda E[S^2] / (2 (1 - rho)) once the queue is near steady state."""
    assert config.p_auto == 1.0 and config.dispensers_per_point == 1
    low, mode, high = (config.auto_service.min, config.auto_service.mode,
                       config.auto_service.max)
    mean = (low + mode + high) / 3
    second = (low * low + mode * mode + high * high
              - low * mode - low * high - mode * high) / 18 + mean * mean
    rates = config.cost_rates
    cost = sum(rates.for_class(cls).idle_rate * 2 * units * config.horizon / 60
               for cls, units in (("skilled", config.skilled_per_point),
                                  ("unskilled", config.unskilled_per_point),
                                  ("dispenser", 1)))
    for share in (config.p_point_A, 1 - config.p_point_A):
        rate = share / config.arrival.mean
        busy = rate * mean * config.horizon - rate * second / (2 * (1 - rate * mean))
        cost += (rates.dispenser.busy_rate - rates.dispenser.idle_rate) * busy / 60
    return cost


@pytest.mark.parametrize("engine", [run_replication, run_oracle],
                         ids=["engine", "event_loop"])
def test_all_auto_cost_matches_closed_form(fast_config, engine):
    config = replace(fast_config, p_auto=1.0)
    stats = summarize([engine(config, 1, i).total_usage_cost for i in range(200)])
    assert abs(stats.mean - all_auto_expected_cost(config)) <= 3 * stats.half_width
