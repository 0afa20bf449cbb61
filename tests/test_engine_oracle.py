"""The model's engine against the event-driven loop it replaced
(`event_oracle.py`), and both against a closed form."""

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest
from event_oracle import run_oracle

import crossdock_sim.model as model_mod
from crossdock_sim import (
    ConfigurationError,
    ModelConfig,
    ResourceLayout,
    run_replication,
    summarize,
)
from crossdock_sim.model import CRN_MODES, build_model
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


def draw_sweep_cases(count: int = 100, seed: int = 17) -> list:
    """`count` seeded random cases `(config, layout, chunk, master_seed,
    replication_index)`, `chunk` standing for `model._CHUNK`: the paper
    config with arrival mean 0.3 to 5, triangles from 0 with the mode at
    either end, `unskilled_factor` 1 to 3, `p_auto` and `p_point_A` 0 to 1
    with both ends, horizons of 60 to 2,880 min (log-uniform) and either
    stream mode, on layouts of 0, 1, 2 or 5 units per pool. Cases whose
    layout has no resource for orders that can arrive are redrawn."""
    rng = random.Random(seed)
    paper = json.loads((Path(__file__).resolve().parent.parent / "configs"
                        / "paper-base.json").read_text())

    def triangle():
        high = rng.choice((1.0, 4.0, 14.0))
        return {"kind": "triangular", "min": 0.0, "mode": rng.choice((0.0, high)),
                "max": high}

    cases = []
    while len(cases) < count:
        config = ModelConfig.from_dict({
            **paper,
            "arrival": {"kind": "exponential", "mean": rng.choice((0.3, 1.0, 2.0, 5.0))},
            "manual_service": triangle(),
            "auto_service": triangle(),
            "unskilled_factor": rng.choice((1.0, 1.3, 3.0)),
            "p_auto": rng.choice((0.0, 0.3, 0.5, 1.0)),
            "p_point_A": rng.choice((0.0, 0.5, 0.8, 1.0)),
            "horizon": 60.0 * 48.0 ** rng.random(),
            "crn_mode": rng.choice(CRN_MODES),
        })
        layout = ResourceLayout(*(rng.choice((0, 1, 2, 5)) for _ in range(6)))
        try:
            build_model(config, layout)
        except ConfigurationError:
            continue
        cases.append((config, layout, rng.choice((1, 3, 17, 1 << 16)),
                      rng.randrange(1 << 31), rng.randrange(100)))
    return cases


SWEEP_CASES = draw_sweep_cases()


@pytest.mark.parametrize("config, layout, chunk, seed, index", SWEEP_CASES,
                         ids=[f"case{i}" for i in range(len(SWEEP_CASES))])
def test_engine_matches_event_loop_on_random_cases(monkeypatch, config, layout, chunk,
                                                   seed, index):
    monkeypatch.setattr(model_mod, "_CHUNK", chunk)
    assert_same_run(run_replication(config, seed, index, layout, collect_log=True),
                    run_oracle(config, seed, index, layout, collect_log=True))


def test_random_cases_reach_every_drawn_value():
    configs = [case[0] for case in SWEEP_CASES]
    assert {c.crn_mode for c in configs} == set(CRN_MODES)
    assert {0.0, 1.0} <= {c.p_auto for c in configs} & {c.p_point_A for c in configs}
    assert {c.unskilled_factor for c in configs} == {1.0, 1.3, 3.0}
    assert {c.arrival.mean for c in configs} == {0.3, 1.0, 2.0, 5.0}
    assert {case[2] for case in SWEEP_CASES} == {1, 3, 17, 1 << 16}
    assert {count for case in SWEEP_CASES for count in vars(case[1]).values()} == {0, 1, 2, 5}
    # the mode at the min and at the max, for both service triangles
    assert {(c.manual_service.mode > 0, c.auto_service.mode > 0) for c in configs} == {
        (False, False), (False, True), (True, False), (True, True)}
