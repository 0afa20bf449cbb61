import concurrent.futures
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import event_oracle
import numpy as np
import pytest
from event_oracle import run_oracle
from test_engine_oracle import assert_same_run

import crossdock_sim.model as model_mod
from crossdock_sim import (
    ConfigurationError,
    ModelConfig,
    ResourceLayout,
    build_model,
    run_replication,
    run_replications,
    total_usage_cost,
)
from crossdock_sim.model import PoolStats


class FakeStream:
    """Cycles a fixed list of uniforms; stands in for a RandomStream."""

    def __init__(self, values):
        self.values = list(values)
        self.pos = 0
        self.draws_taken = 0

    def uniform(self):
        v = self.values[self.pos % len(self.values)]
        self.pos += 1
        self.draws_taken += 1
        return v

    def uniforms(self, n):
        return np.array([self.uniform() for _ in range(n)])


def fake_streams(monkeypatch, per_source):
    def factory(master_seed, source_id, replication_index):
        return FakeStream(per_source[source_id])

    monkeypatch.setattr(model_mod, "stream_create", factory)
    monkeypatch.setattr(event_oracle, "stream_create", factory)


class TestConfigParsing:
    def test_roundtrip(self, paper_config):
        assert ModelConfig.from_dict(paper_config.to_dict()) == paper_config

    def test_unknown_field_named(self, paper_config):
        data = paper_config.to_dict()
        data["surprise"] = 1
        with pytest.raises(ConfigurationError, match="surprise"):
            ModelConfig.from_dict(data)

    def test_missing_field_named(self, paper_config):
        data = paper_config.to_dict()
        del data["horizon"]
        with pytest.raises(ConfigurationError, match="horizon"):
            ModelConfig.from_dict(data)

    def test_all_violations_reported(self, paper_config):
        with pytest.raises(ConfigurationError) as raised:
            replace(paper_config, p_auto=2.0, horizon=-1.0, unskilled_factor=0.5)
        text = str(raised.value)
        assert "p_auto" in text and "horizon" in text and "unskilled_factor" in text

    @pytest.mark.parametrize("field,value,expected", [
        ("arrival", {"kind": "exponential", "mean": 5.0}, "Exponential"),
        ("manual_service", model_mod.Exponential("exponential", 5.0), "Triangular"),
        ("cost_rates", {}, "CostRates"),
    ])
    def test_object_field_of_wrong_type_named(self, paper_config, field, value, expected):
        with pytest.raises(ConfigurationError, match=f"{field}: expected {expected}"):
            replace(paper_config, **{field: value})

    @pytest.mark.parametrize("field,value", [
        ("dispensers_per_point", 10**8),
        ("skilled_per_point", model_mod.MAX_UNITS + 1),
        ("cost_rates.skilled.idle_rate", 1e101),
        ("unskilled_factor", 1e101),
        ("manual_service.max", 1e101),
    ])
    def test_value_above_its_bound_named(self, paper_config, with_field, field, value):
        with pytest.raises(ConfigurationError, match=f"{field}: must be in"):
            ModelConfig.from_dict(with_field(paper_config.to_dict(), field, value))

    def test_values_at_their_bounds_run_to_finite_cost(self, paper_config, with_field):
        data = {**paper_config.to_dict(), "horizon": 60.0,
                "dispensers_per_point": model_mod.MAX_UNITS}
        for rate in ("busy_rate", "idle_rate", "per_use"):
            data = with_field(data, f"cost_rates.dispenser.{rate}", model_mod.MAX_VALUE)
        out = run_replication(ModelConfig.from_dict(data), 1, 0)
        assert math.isfinite(out.total_usage_cost)

    def test_bad_crn_mode(self, paper_config):
        data = paper_config.to_dict()
        data["crn_mode"] = "sometimes"
        with pytest.raises(ConfigurationError, match="crn_mode"):
            ModelConfig.from_dict(data)


ROOT = Path(__file__).resolve().parent.parent
PAPER = json.loads((ROOT / "configs" / "paper-base.json").read_text())
HOSTILE = [math.nan, math.inf, -math.inf, -1, 0, True, "5", None, [], 1e9]
# one more hostile value, listed after the others so that the index-based
# ids of the cases above stay as they are
HUGE = 1e308


def field_paths(data, prefix=""):
    for key, value in data.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from field_paths(value, f"{prefix}{key}.")


@pytest.mark.parametrize("field,value", [
    (field, value)
    for field in field_paths(PAPER)
    for value in HOSTILE + ([1e-9] if field.endswith(".mean") else [])
] + [(field, HUGE) for field in field_paths(PAPER)] + [
    (field, {"kind": "triangular", "min": 5.0, "mode": 5.0, "max": 5.0})
    for field in ("manual_service", "auto_service")  # degenerate triangle
])
def test_hostile_value_named_or_runs(field, value, with_field):
    """Every accepted config runs to a finite cost; every rejected one names
    the field."""
    data = with_field({**PAPER, "horizon": 60.0}, field, value)
    try:
        out = run_replication(ModelConfig.from_dict(data), 1, 0)
    except ConfigurationError as exc:
        assert field in str(exc)
    else:
        assert math.isfinite(out.total_usage_cost)


def test_config_dataclasses_are_the_file_schema():
    """Each config dataclass's fields are the keys of its object in the
    paper config, in file order, and every field has a rule."""
    def walk(cls, data):
        assert [f.name for f in fields(cls)] == list(data)
        for f in fields(cls):
            if isinstance(f.metadata["rule"], type):
                walk(f.metadata["rule"], data[f.name])

    walk(ModelConfig, PAPER)
    assert all("rule" in f.metadata for f in fields(ResourceLayout))


class TestLayout:
    def test_dispensers_round_robin_a_first(self):
        assert ResourceLayout.from_totals(1, 4).dispensers_A == 1
        assert ResourceLayout.from_totals(1, 4).dispensers_B == 0
        layout = ResourceLayout.from_totals(6, 4)
        assert (layout.dispensers_A, layout.dispensers_B) == (3, 3)

    @pytest.mark.parametrize(
        "operatives,expected",
        [
            (1, (1, 0, 0, 0)),
            (2, (1, 1, 0, 0)),
            (3, (1, 1, 1, 0)),
            (4, (1, 1, 1, 1)),
            (5, (2, 1, 1, 1)),
            (8, (2, 2, 2, 2)),
        ],
    )
    def test_operatives_cycle(self, operatives, expected):
        lo = ResourceLayout.from_totals(2, operatives)
        assert (lo.skilled_A, lo.skilled_B, lo.unskilled_A, lo.unskilled_B) == expected


class TestBuildModel:
    def test_paper_base_pool_capacities(self, paper_config):
        layout = build_model(paper_config)
        caps = {f"{cls}_{pt}": layout.capacity(cls, pt)
                for cls in model_mod.RESOURCE_CLASSES for pt in model_mod.POINTS}
        assert caps == {
            "skilled_A": 2, "unskilled_A": 2, "dispenser_A": 1,
            "skilled_B": 2, "unskilled_B": 2, "dispenser_B": 1,
        }

    def test_no_dispensers_without_auto_orders_is_valid(self, paper_config):
        cfg = replace(paper_config, dispensers_per_point=0, p_auto=0.0)
        build_model(cfg)

    def test_no_dispensers_with_auto_orders_is_error(self, paper_config):
        cfg = replace(paper_config, dispensers_per_point=0)
        with pytest.raises(ConfigurationError, match="dispenser"):
            build_model(cfg)

    def test_no_operatives_with_manual_orders_is_error(self, paper_config):
        cfg = replace(paper_config, skilled_per_point=0, unskilled_per_point=0)
        with pytest.raises(ConfigurationError, match="operative"):
            build_model(cfg)

    def test_layout_whose_cost_overflows_is_error(self, paper_config):
        # a rate above MAX_VALUE, and a layout count above MAX_UNITS, are
        # rejected by name, so no accepted layout's cost can overflow
        with pytest.raises(ConfigurationError, match="cost_rates.dispenser.idle_rate"):
            build_model(replace(paper_config, cost_rates=replace(
                paper_config.cost_rates,
                dispenser=replace(paper_config.cost_rates.dispenser, idle_rate=1e295))))
        with pytest.raises(ConfigurationError, match="layout.dispensers_B"):
            build_model(paper_config,
                        replace(ResourceLayout.symmetric(paper_config), dispensers_B=10**6))

    @pytest.mark.parametrize("count", [-1, 1.5, True, "2", None, model_mod.MAX_UNITS + 1])
    def test_layout_count_outside_schema_named(self, paper_config, count):
        with pytest.raises(ConfigurationError, match="layout.skilled_A"):
            build_model(paper_config,
                        replace(ResourceLayout.symmetric(paper_config), skilled_A=count))

    def test_negative_replication_index_rejected(self, fast_config):
        with pytest.raises(ConfigurationError, match="replication_index"):
            run_replication(fast_config, 1, -1)

    def test_bad_config_cannot_be_built(self, fast_config):
        with pytest.raises(ConfigurationError, match="p_auto"):
            replace(fast_config, p_auto=2.0)

    def test_direct_run_rejects_bad_config(self, fast_config):
        # the config is valid; the layout leaves its automated orders no dispenser
        layout = replace(ResourceLayout.symmetric(fast_config), dispensers_A=0, dispensers_B=0)
        with pytest.raises(ConfigurationError, match="dispensers_per_point"):
            run_replication(fast_config, 1, 0, layout)


class TestRouting:
    def test_all_manual_when_p_auto_zero(self, fast_config):
        cfg = replace(fast_config, p_auto=0.0)
        out = run_replication(cfg, 1, 0)
        assert out.pools["dispenser_A"].grants == 0
        assert out.pools["dispenser_B"].grants == 0
        assert out.arrivals > 0

    def test_all_auto_point_a(self, fast_config):
        cfg = replace(fast_config, p_auto=1.0, p_point_A=1.0, dispensers_per_point=5)
        out = run_replication(cfg, 1, 0)
        for name in ("skilled_A", "skilled_B", "unskilled_A", "unskilled_B",
                     "dispenser_B"):
            assert out.pools[name].grants == 0
        assert out.pools["dispenser_A"].grants == out.arrivals - out.in_system_at_end

    def test_auto_fraction_binomial(self, paper_config):
        # ~1e5 orders; huge dispenser bank so grants == routed auto orders
        cfg = replace(paper_config, horizon=500_000.0, dispensers_per_point=10_000)
        out = run_replication(cfg, 5, 0)
        auto = out.pools["dispenser_A"].grants + out.pools["dispenser_B"].grants
        assert out.arrivals > 90_000
        assert abs(auto / out.arrivals - 0.5) < 0.01


class TestServiceTimes:
    def test_unskilled_duration_scales_by_factor(self, paper_config, monkeypatch):
        cfg = replace(
            paper_config,
            skilled_per_point=0, unskilled_per_point=1,
            p_auto=0.0, p_point_A=1.0, horizon=12.0,
        )
        fake_streams(monkeypatch, {
            "arrival": [0.5],
            "order_type": [0.9],
            "point_choice": [0.1],
            "manual_service_point_A": [0.25],
            "manual_service_point_B": [0.25],
            "auto_service_point_A": [0.5],
            "auto_service_point_B": [0.5],
        })
        out = run_replication(cfg, 0, 0, collect_log=True)
        grants = [r for r in out.log if r[1] == "grant" and r[3] == "unskilled_A"]
        completes = [r for r in out.log if r[1] == "complete"]
        assert grants and completes
        duration = completes[0][0] - grants[0][0]
        assert duration == pytest.approx(1.3 * (3.0 + math.sqrt(11.0)), abs=1e-9)

    def test_dispenser_uses_auto_triangle(self, paper_config, monkeypatch):
        cfg = replace(paper_config, p_auto=1.0, p_point_A=1.0, horizon=10.0)
        fake_streams(monkeypatch, {
            "arrival": [0.5],
            "order_type": [0.1],
            "point_choice": [0.1],
            "manual_service_point_A": [0.5],
            "manual_service_point_B": [0.5],
            "auto_service_point_A": [0.0],  # triangle minimum
            "auto_service_point_B": [0.5],
        })
        out = run_replication(cfg, 0, 0, collect_log=True)
        grants = [r for r in out.log if r[1] == "grant" and r[3] == "dispenser_A"]
        completes = [r for r in out.log if r[1] == "complete"]
        assert completes[0][0] - grants[0][0] == pytest.approx(1.0, abs=1e-12)


class TestExactTies:
    """Events at one instant, each run checked against the event loop and
    its log against each pool's capacity. Arrivals come every 1.0 min
    exactly, all at point A; the triangle (0, 4, 4) turns a service
    uniform u into 4 sqrt(u) min, so 1/16, 1/4 and 9/16 give 1, 2 and 3
    min. An order type uniform of 0.0 makes an automated order, 0.9 a
    manual one. `units` are the skilled, unskilled and dispenser counts at
    A; B has none. Unskilled operatives are as fast as skilled ones unless
    `factor` says otherwise."""

    @staticmethod
    def run(paper_config, monkeypatch, horizon, units, order_type, manual, auto,
            factor=1.0):
        triangle = {"kind": "triangular", "min": 0.0, "mode": 4.0, "max": 4.0}
        config = ModelConfig.from_dict({
            **paper_config.to_dict(),
            "arrival": {"kind": "exponential", "mean": 1 / math.log(2)},
            "manual_service": triangle, "auto_service": triangle,
            "unskilled_factor": factor, "p_auto": 0.5, "p_point_A": 1.0, "horizon": horizon,
        })
        fake_streams(monkeypatch, {
            "arrival": [0.5], "order_type": order_type, "point_choice": [0.0],
            "manual_service_point_A": manual, "manual_service_point_B": [0.5],
            "auto_service_point_A": auto, "auto_service_point_B": [0.5],
        })
        skilled, unskilled, dispensers = units
        layout = ResourceLayout(skilled, 0, unskilled, 0, dispensers, 0)
        out = run_replication(config, 0, 0, layout, collect_log=True)
        assert_same_run(out, run_oracle(config, 0, 0, layout, collect_log=True))
        assert [row[0] for row in out.log if row[1] == "arrival"] == list(
            range(1, math.floor(horizon) + 1))
        for _, kind, _, pool, queue_len, busy in out.log:
            if kind in ("grant", "complete"):
                assert 0 <= busy <= layout.capacity(*pool.rsplit("_", 1)) and queue_len >= 0
        return out

    @staticmethod
    def granted(out) -> dict:
        return {row[2]: row[3] for row in out.log if row[1] == "grant"}

    def test_order_ending_at_the_horizon_completes(self, paper_config, monkeypatch):
        # order 1 takes the dispenser from 1 to 4; order 2 holds the one
        # skilled operative from 2 to 5, so orders 3 and 4 wait past the end
        out = self.run(paper_config, monkeypatch, 4.0, (1, 0, 1),
                       [0.0, 0.9, 0.9, 0.9], [9 / 16], [9 / 16])
        assert out.completions == 1
        assert [row[:3] for row in out.log if row[1] == "complete"] == [(4.0, "complete", 1)]

    def test_order_arriving_at_the_horizon_is_granted(self, paper_config, monkeypatch):
        # three dispensers, each order holding one for 3 min
        out = self.run(paper_config, monkeypatch, 3.0, (1, 0, 3),
                       [0.0], [0.5], [9 / 16])
        assert out.pools["dispenser_A"].grants == 3
        assert self.granted(out)[3] == "dispenser_A"
        assert out.completions == 0

    def test_skilled_unit_freed_at_an_arrival_is_taken(self, paper_config, monkeypatch):
        # order 1 holds the skilled operative from 1 to 3, order 2 is
        # automated, and order 3 arrives at 3 with the unskilled one idle
        out = self.run(paper_config, monkeypatch, 3.5, (1, 1, 1),
                       [0.9, 0.0, 0.9], [1 / 4], [1 / 4])
        assert self.granted(out) == {1: "skilled_A", 2: "dispenser_A", 3: "skilled_A"}
        assert out.pools["unskilled_A"].grants == 0

    def test_waiting_order_takes_skilled_unit_freed_with_unskilled(self, paper_config,
                                                                   monkeypatch):
        # orders 1 (skilled, 1 to 4) and 2 (unskilled, 2 to 4) free their
        # units at 4, where order 3 waits; order 4 arrives then too
        out = self.run(paper_config, monkeypatch, 4.5, (1, 1, 1),
                       [0.9], [9 / 16, 1 / 4, 1 / 16, 1 / 16], [0.5])
        assert self.granted(out) == {1: "skilled_A", 2: "unskilled_A", 3: "skilled_A",
                                     4: "unskilled_A"}

    def test_extra_unskilled_operative_can_lower_completions(self, paper_config,
                                                             monkeypatch):
        """The manual pools are not monotone in their capacity, so the
        monotonicity under which CRN must reduce the variance of a
        difference (Glasserman and Yao, 1992) does not hold for them.
        Orders 1 and 2 are manual (2 min skilled, 6 min unskilled), orders 3
        to 5 automated (1/64 gives 0.5 min). Order 1 holds the skilled
        operative from 1 to 3. Alone, it serves order 2 from 3 to 5; with
        an idle unskilled operative, order 2 takes that one at 2 until 8."""
        alone, helped = (self.run(paper_config, monkeypatch, 5.25, (1, unskilled, 1),
                                  [0.9, 0.9, 0.0, 0.0, 0.0], [1 / 4], [1 / 64], factor=3.0)
                         for unskilled in (0, 1))
        assert self.granted(alone)[2] == "skilled_A"
        assert self.granted(helped)[2] == "unskilled_A"
        assert (alone.completions, helped.completions) == (4, 3)

    # Order i takes 1 min and arrives as order i - 1, which started at its
    # own arrival, frees its unit. A unit freed at t serves an order
    # arriving at t: the completion comes first, then the arrival is
    # granted that unit at once.

    def test_dispenser_freed_at_an_arrival_by_an_unqueued_order(self, paper_config,
                                                                monkeypatch):
        # each order takes the one dispenser as it arrives, after the
        # previous order's completion has freed it; no order waits
        out = self.run(paper_config, monkeypatch, 3.5, (1, 0, 1), [0.0], [1 / 16], [1 / 16])
        assert [row[1] for row in out.log if row[1] != "arrival"] == [
            "grant", "complete", "grant", "complete", "grant"]
        assert out.completions == 2

    def test_skilled_unit_freed_at_an_arrival_by_an_unqueued_order(self, paper_config,
                                                                   monkeypatch):
        # each order takes the skilled operative its predecessor frees as it
        # arrives, not the idle unskilled one (3 min): cost 2.716667 and 3
        # completions
        out = self.run(paper_config, monkeypatch, 4.5, (1, 1, 1), [0.9], [1 / 16], [1 / 16],
                       factor=3.0)
        assert set(self.granted(out).values()) == {"skilled_A"}
        assert out.completions == 3
        assert out.total_usage_cost == pytest.approx(2.716667, abs=1e-6)


class TestCost:
    def test_zero_rates_zero_cost(self, paper_config):
        rates = ModelConfig.from_dict({
            **paper_config.to_dict(),
            "cost_rates": {
                c: {"busy_rate": 0.0, "idle_rate": 0.0, "per_use": 0.0}
                for c in ("skilled", "unskilled", "dispenser")
            },
        }).cost_rates
        stats = {"skilled_A": PoolStats(100.0, 200.0, 7)}
        assert total_usage_cost(stats, rates) == 0.0

    def test_idle_only_pool(self, paper_config):
        # capacity 2, horizon 60 min, never used, idle £10/h -> £20
        rates = ModelConfig.from_dict({
            **paper_config.to_dict(),
            "cost_rates": {
                "skilled": {"busy_rate": 0.0, "idle_rate": 10.0, "per_use": 0.0},
                "unskilled": {"busy_rate": 0.0, "idle_rate": 0.0, "per_use": 0.0},
                "dispenser": {"busy_rate": 0.0, "idle_rate": 0.0, "per_use": 0.0},
            },
        }).cost_rates
        stats = {"skilled_A": PoolStats(0.0, 120.0, 0)}
        assert total_usage_cost(stats, rates) == pytest.approx(20.0)

    def test_cost_recomputable_from_pool_stats(self, fast_config):
        out = run_replication(fast_config, 21, 4)
        recomputed = total_usage_cost(out.pools, fast_config.cost_rates)
        assert out.total_usage_cost == pytest.approx(recomputed, rel=1e-9)


def replay_busy_integral(log, pool_name, horizon):
    """Oracle: reintegrate a pool's busy level from its logged changes."""
    integral = 0.0
    busy = 0
    last = 0.0
    for t, kind, _eid, pool, _qlen, busy_after in log:
        if pool != pool_name or kind == "enqueue":
            continue
        integral += busy * (t - last)
        busy = busy_after
        last = t
    integral += busy * (horizon - last)
    return integral


class TestReplicationRuns:
    def test_determinism(self, fast_config):
        a = run_replication(fast_config, 42, 3)
        b = run_replication(fast_config, 42, 3)
        assert a == b

    def test_conservation_over_replications(self, fast_config):
        for out in run_replications(fast_config, 8, range(20)):
            assert out.arrivals == out.completions + out.in_system_at_end

    def test_busy_time_matches_log_replay(self, fast_config):
        out = run_replication(fast_config, 13, 2, collect_log=True)
        for name, stats in out.pools.items():
            oracle = replay_busy_integral(out.log, name, fast_config.horizon)
            assert stats.busy_time == pytest.approx(oracle, rel=1e-9, abs=1e-9)

    def test_fifo_grants_follow_enqueue_order(self, fast_config):
        # load the dispensers heavily so queues actually form
        cfg = replace(fast_config, p_auto=1.0)
        out = run_replication(cfg, 3, 0, collect_log=True)
        for pool in ("dispenser_A", "dispenser_B"):
            enqueued = [r[2] for r in out.log if r[1] == "enqueue" and r[3] == pool]
            granted = [r[2] for r in out.log if r[1] == "grant" and r[3] == pool]
            queue_grants = [e for e in granted if e in set(enqueued)]
            assert queue_grants == enqueued[:len(queue_grants)]

    def test_skilled_preferred_over_unskilled(self, fast_config):
        out = run_replication(fast_config, 17, 0, collect_log=True)
        for point in ("A", "B"):
            skilled, unskilled = f"skilled_{point}", f"unskilled_{point}"
            skilled_busy = 0
            arrivals_at = {}
            for row in out.log:
                t, kind, eid, pool, _qlen, busy_after = row
                if kind == "arrival":
                    arrivals_at[eid] = t
                elif pool == skilled:
                    skilled_busy = busy_after
                elif kind == "grant" and pool == unskilled and arrivals_at.get(eid) == t:
                    # direct grant at arrival: skilled must have been full
                    assert skilled_busy == 2

    def test_crn_arrival_sequence_invariant_to_capacity(self, fast_config):
        base = run_replication(fast_config, 99, 0, collect_log=True)
        more = run_replication(
            replace(fast_config, dispensers_per_point=3, skilled_per_point=4),
            99, 0, collect_log=True,
        )
        arrivals = lambda log: [r[0] for r in log if r[1] == "arrival"]
        assert arrivals(base.log) == arrivals(more.log)

    def test_default_stream_mode_differs_from_dedicated(self, fast_config):
        shared = run_replication(fast_config.with_crn_mode("default_stream"),
                                 99, 0, collect_log=True)
        dedicated = run_replication(fast_config, 99, 0, collect_log=True)
        arrivals = lambda log: [r[0] for r in log if r[1] == "arrival"]
        assert arrivals(shared.log) != arrivals(dedicated.log)

    def test_monotone_load(self, fast_config):
        slow = replace(fast_config, arrival=replace(fast_config.arrival, mean=10.0))
        fast_counts = [o.arrivals for o in run_replications(fast_config, 5, range(20))]
        slow_counts = [o.arrivals for o in run_replications(slow, 5, range(20))]
        assert sum(slow_counts) < sum(fast_counts)

    def test_tiny_horizon_empty_run(self, fast_config):
        out = run_replication(replace(fast_config, horizon=1e-9), 1, 0)
        assert out.arrivals == 0
        assert out.completions == 0
        assert out.total_usage_cost < 1e-6

    def test_zero_capacity_point_queues_forever(self, fast_config):
        layout = ResourceLayout.from_totals(1, 1)
        out = run_replication(fast_config, 2, 0, layout=layout)
        assert out.pools["dispenser_B"].grants == 0
        assert out.pools["skilled_B"].grants == 0
        assert out.arrivals == out.completions + out.in_system_at_end
        assert out.in_system_at_end > 0

    def test_threads_do_not_change_results(self, fast_config):
        serial = run_replications(fast_config, 6, range(4), threads=1)
        parallel = run_replications(fast_config, 6, range(4), threads=2)
        assert serial == parallel

    def test_worker_pool_capped_at_usable_cpus(self, monkeypatch):
        # records the size of the pool it would start; starts no process
        requested = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda max_workers: requested.append(max_workers))
        model_mod.worker_pool(10**6)
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count())
        assert requested == ([cpus] if cpus > 1 else [])  # one CPU runs in process

    def test_in_process_run_imports_no_multiprocessing(self):
        """A fresh interpreter that imports the CLI, builds the paper model
        and runs a replication in process loads no multiprocessing module."""
        code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
                "import crossdock_sim.cli as cli; "
                "from crossdock_sim.model import build_model, run_replications; "
                f"config = cli.load_config({str(ROOT / 'configs' / 'paper-base.json')!r}); "
                "build_model(config); run_replications(config, 1, range(2), threads=1); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=60)
        assert proc.stdout.strip() == "[]"
