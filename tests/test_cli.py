import json
import math
from pathlib import Path

import pytest
from click.testing import CliRunner

from crossdock_sim import cli
from crossdock_sim.cli import main
from crossdock_sim.model import CrossdockModel


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def config_file(tmp_path, fast_config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fast_config.to_dict()))
    return str(path)


def read_all(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


# Report keys are the field names of the result dataclasses; these pin them.
SUMMARY_KEYS = {"n", "mean", "sd", "confidence", "half_width"}
PAIRED_KEYS = {"n", "mean_diff", "var_a", "var_b", "var_diff", "covariance",
               "half_width_diff", "crn"}

# Each command's arguments before the options; CONFIG stands for a config path.
COMMANDS = {
    "simulate": ["simulate", "CONFIG"],
    "table5": ["table5", "CONFIG"],
    "compare": ["compare", "CONFIG", "CONFIG"],
    "optimize": ["optimize", "CONFIG"],
    "precision": ["precision", "CONFIG", "--target", "1"],
}


def command_args(name, config_file):
    return [config_file if arg == "CONFIG" else arg for arg in COMMANDS[name]]


@pytest.mark.parametrize("value", ["0", "1.5", "nan"])
@pytest.mark.parametrize("name", ["simulate", "table5", "compare", "precision"])
def test_confidence_outside_unit_interval_rejected_before_running(
        runner, config_file, tmp_path, name, value):
    out = tmp_path / "x"
    res = runner.invoke(main, command_args(name, config_file)
                        + ["--confidence", value, "--out", str(out)])
    assert res.exit_code == 2
    assert "--confidence" in res.output
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_threads_below_one_rejected_before_running(runner, config_file, tmp_path,
                                                   name, value):
    out = tmp_path / "x"
    res = runner.invoke(main, command_args(name, config_file)
                        + ["--threads", value, "--out", str(out)])
    assert res.exit_code == 2
    assert "--threads" in res.output
    assert not out.exists()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_negative_seed_rejected_before_running(runner, config_file, tmp_path, name):
    out = tmp_path / "x"
    res = runner.invoke(main, command_args(name, config_file)
                        + ["--seed", "-1", "--out", str(out)])
    assert res.exit_code == 2
    assert "--seed" in res.output
    assert not out.exists()


class TestSimulate:
    def test_writes_reports(self, runner, config_file, tmp_path):
        out = tmp_path / "r"
        res = runner.invoke(main, ["simulate", config_file, "--reps", "5",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        summary = json.loads((out / "simulate_summary.json").read_text())
        assert set(summary["summary"]) == SUMMARY_KEYS
        assert summary["summary"]["n"] == 5
        assert summary["manifest"]["command"] == "simulate"
        csv_lines = (out / "simulate_replications.csv").read_text().splitlines()
        assert csv_lines[0].startswith("# manifest ")
        assert len(csv_lines) == 2 + 5  # manifest + header + rows

    def test_byte_identical_reruns(self, runner, config_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            res = runner.invoke(main, ["simulate", config_file, "--reps", "4",
                                       "--out", str(out)])
            assert res.exit_code == 0, res.output
        assert read_all(a) == read_all(b)

    @pytest.mark.parametrize("extra", [[], ["--event-log"]], ids=["plain", "event_log"])
    def test_threads_do_not_change_bytes(self, runner, config_file, tmp_path, extra):
        a, b = tmp_path / "a", tmp_path / "b"
        res = runner.invoke(main, ["simulate", config_file, "--reps", "4",
                                   "--out", str(a), "--threads", "1", *extra])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["simulate", config_file, "--reps", "4",
                                   "--out", str(b), "--threads", "3", *extra])
        assert res.exit_code == 0, res.output
        assert read_all(a) == read_all(b)

    def test_reps_one_is_usage_error(self, runner, config_file, tmp_path):
        res = runner.invoke(main, ["simulate", config_file, "--reps", "1",
                                   "--out", str(tmp_path / "x")])
        assert res.exit_code == 2

    @pytest.mark.parametrize("field,value", [
        ("mystery_knob", 3),
        ("horizon", math.inf),
        ("unskilled_factor", math.nan),
        ("cost_rates.dispenser.idle_rate", math.nan),
        ("cost_rates.skilled.busy_rate", math.inf),
        ("arrival.mean", "5"),
        ("arrival.mean", True),
        ("cost_rates.unskilled.per_use", False),
        ("cost_rates.skilled.busy_rate", "20"),
        ("cost_rates.skilled.idle_rate", 1e308),
        ("skilled_per_point", 10**307),
    ], ids=["mystery_knob", "infinite_horizon", "nan_factor", "nan_rate",
            "infinite_rate", "string_mean", "bool_mean", "bool_rate", "string_rate",
            "overflowing_rate", "overflowing_count"])
    def test_unknown_config_field_named(self, runner, tmp_path, fast_config,
                                        with_field, field, value):
        data = with_field(fast_config.to_dict(), field, value)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        res = runner.invoke(main, ["simulate", str(path), "--reps", "3",
                                   "--out", str(tmp_path / "x")])
        assert res.exit_code == 2
        assert field in res.output

    def test_unreadable_config(self, runner, tmp_path):
        res = runner.invoke(main, ["simulate", str(tmp_path / "missing.json"),
                                   "--out", str(tmp_path / "x")])
        assert res.exit_code == 2
        assert "cannot read config" in res.output

    def test_runtime_error_exits_3(self, runner, config_file, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("worker died")

        monkeypatch.setattr(cli, "run_replications", fail)
        res = runner.invoke(main, ["simulate", config_file, "--reps", "3",
                                   "--out", str(tmp_path / "x")])
        assert res.exit_code == 3
        assert "runtime error: worker died" in res.output

    def test_malformed_json(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        res = runner.invoke(main, ["simulate", str(path),
                                   "--out", str(tmp_path / "x")])
        assert res.exit_code == 2

    def test_event_log_report(self, runner, config_file, tmp_path):
        out = tmp_path / "r"
        res = runner.invoke(main, ["simulate", config_file, "--reps", "2",
                                   "--event-log", "--out", str(out)])
        assert res.exit_code == 0, res.output
        lines = (out / "simulate_events.csv").read_text().splitlines()
        assert lines[1] == ("replication,time,event_kind,entity_id,pool,"
                            "queue_len,busy_units")
        assert len(lines) > 10

    def test_event_log_runs_each_replication_once(self, runner, config_file, tmp_path,
                                                  monkeypatch):
        runs = []
        original = CrossdockModel.run

        def counted(self, *args, **kwargs):
            runs.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CrossdockModel, "run", counted)
        res = runner.invoke(main, ["simulate", config_file, "--reps", "3", "--event-log",
                                   "--out", str(tmp_path / "r")])
        assert res.exit_code == 0, res.output
        assert len(runs) == 3


class TestTable5:
    def test_report_shape(self, runner, config_file, tmp_path):
        out = tmp_path / "r"
        res = runner.invoke(main, ["table5", config_file, "--levels", "5,10,20",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        lines = (out / "table5.csv").read_text().splitlines()
        header = lines[1].split(",")
        assert header == ["replications", "halfwidth_default_stream",
                          "halfwidth_crn", "difference"]
        assert len(lines[2:5]) == 3
        footer = "\n".join(lines[5:])
        assert "first_minus_last_halfwidth_default_stream" in footer
        assert "first_minus_last_halfwidth_crn" in footer
        assert "sum_of_level_differences" in footer
        table = json.loads((out / "table5.json").read_text())["table"]
        assert set(table) == {"rows", "first_minus_last_halfwidth_default_stream",
                              "first_minus_last_halfwidth_crn",
                              "sum_of_level_differences", "confidence"}
        for row in table["rows"]:
            assert set(row) == {"replications", "halfwidth_default_stream",
                                "halfwidth_crn", "difference"}
        assert [r["replications"] for r in table["rows"]] == [5, 10, 20]

    def test_single_level(self, runner, config_file, tmp_path):
        out = tmp_path / "r"
        res = runner.invoke(main, ["table5", config_file, "--levels", "10",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        table = json.loads((out / "table5.json").read_text())["table"]
        assert table["first_minus_last_halfwidth_default_stream"] == 0.0

    def test_unsorted_levels_rejected(self, runner, config_file, tmp_path):
        res = runner.invoke(main, ["table5", config_file, "--levels", "20,10",
                                   "--out", str(tmp_path / "x")])
        assert res.exit_code == 2

    def test_non_integer_levels_rejected(self, runner, config_file, tmp_path):
        res = runner.invoke(main, ["table5", config_file, "--levels", "5,x",
                                   "--out", str(tmp_path / "x")])
        assert res.exit_code == 2
        assert "--levels must be integers" in res.output


class TestCompare:
    def test_identical_configs_crn(self, runner, config_file, tmp_path):
        out = tmp_path / "r"
        res = runner.invoke(main, ["compare", config_file, config_file,
                                   "--reps", "5", "--crn", "--out", str(out)])
        assert res.exit_code == 0, res.output
        report = json.loads((out / "compare.json").read_text())
        assert report["requested"]["var_diff"] == 0.0

    def test_both_modes_reported_with_ratio(self, runner, tmp_path, fast_config):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(fast_config.to_dict()))
        data = fast_config.to_dict()
        data["dispensers_per_point"] = 2
        b.write_text(json.dumps(data))
        out = tmp_path / "r"
        res = runner.invoke(main, ["compare", str(a), str(b), "--reps", "20",
                                   "--both", "--out", str(out)])
        assert res.exit_code == 0, res.output
        report = json.loads((out / "compare.json").read_text())
        assert set(report["requested"]) == set(report["other_mode"]) == PAIRED_KEYS
        assert report["requested"]["crn"] is True
        assert report["other_mode"]["crn"] is False
        assert report["var_diff_ratio_crn_over_independent"] < 1.0

    @pytest.mark.parametrize("extra,runs", [([], 6), (["--both"], 9)],
                             ids=["requested", "both"])
    def test_config_a_runs_once(self, runner, config_file, tmp_path, monkeypatch,
                                extra, runs):
        calls = []
        original = CrossdockModel.run

        def counted(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CrossdockModel, "run", counted)
        res = runner.invoke(main, ["compare", config_file, config_file, "--reps", "3",
                                   "--threads", "1", *extra, "--out", str(tmp_path / "r")])
        assert res.exit_code == 0, res.output
        assert len(calls) == runs

    def test_confounded_configs_rejected(self, runner, tmp_path, fast_config):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(fast_config.to_dict()))
        data = fast_config.to_dict()
        data["horizon"] = 999.0
        b.write_text(json.dumps(data))
        res = runner.invoke(main, ["compare", str(a), str(b),
                                   "--out", str(tmp_path / "x")])
        assert res.exit_code == 2


class TestOptimize:
    def test_trace_and_summary(self, runner, config_file, tmp_path):
        out = tmp_path / "r"
        res = runner.invoke(main, [
            "optimize", config_file, "--budget", "30", "--reps", "2",
            "--dispenser-max", "2", "--operative-max", "2",
            "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        lines = (out / "optimize_trace.csv").read_text().splitlines()
        assert lines[1].split(",") == [
            "eval_index", "dispensers", "operatives", "mean_cost",
            "half_width", "incumbent_cost", "is_new_best",
        ]
        assert len(lines) - 2 <= 4  # 2x2 space exhausts before budget
        summary = json.loads((out / "optimize_summary.json").read_text())
        assert summary["result"]["evaluations_used"] <= 4
        assert summary["result"]["best_found_at"] >= 1

    def test_validate_reps_appended(self, runner, config_file, tmp_path):
        out = tmp_path / "r"
        res = runner.invoke(main, [
            "optimize", config_file, "--budget", "10", "--reps", "2",
            "--dispenser-max", "2", "--operative-max", "1",
            "--validate-reps", "4", "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        summary = json.loads((out / "optimize_summary.json").read_text())
        assert set(summary["result"]) == {"best_point", "best_value", "best_found_at",
                                          "evaluations_used", "crn", "reps_per_eval",
                                          "seed"}
        assert set(summary["result"]["best_point"]) == {"dispensers", "operatives"}
        assert set(summary["validation"]) == {"reps", "mean", "half_width"}
        assert summary["validation"]["reps"] == 4
        assert summary["validation"]["mean"] > 0

    def test_threads_do_not_change_bytes(self, runner, config_file, tmp_path):
        outs = []
        for threads in ("1", "2"):
            outs.append(tmp_path / threads)
            res = runner.invoke(main, [
                "optimize", config_file, "--budget", "12", "--reps", "2",
                "--validate-reps", "4", "--out", str(outs[-1]), "--threads", threads,
            ])
            assert res.exit_code == 0, res.output
        assert read_all(outs[0]) == read_all(outs[1])

    def test_budget_zero_rejected(self, runner, config_file, tmp_path):
        res = runner.invoke(main, ["optimize", config_file, "--budget", "0",
                                   "--out", str(tmp_path / "x")])
        assert res.exit_code == 2

    def test_validate_reps_one_rejected(self, runner, config_file, tmp_path):
        res = runner.invoke(main, ["optimize", config_file, "--validate-reps", "1",
                                   "--out", str(tmp_path / "x")])
        assert res.exit_code == 2
        assert "--validate-reps" in res.output

    def test_grid_over_limit_rejected_before_running(self, runner, config_file, tmp_path):
        out = tmp_path / "x"
        res = runner.invoke(main, ["optimize", config_file, "--dispenser-max", "200",
                                   "--operative-max", "100", "--budget", "1", "--reps", "2",
                                   "--out", str(out)])
        assert res.exit_code == 2
        assert "dispenser_max x operative_max" in res.output
        assert not out.exists()


class TestPrecision:
    def test_huge_target(self, runner, config_file, tmp_path):
        out = tmp_path / "r"
        res = runner.invoke(main, ["precision", config_file, "--target", "1e12",
                                   "--n0", "3", "--out", str(out)])
        assert res.exit_code == 0, res.output
        report = json.loads((out / "precision.json").read_text())
        assert set(report["result"]) == {"target_half_width", "achieved", "n_used",
                                         "final"}
        assert set(report["result"]["final"]) == SUMMARY_KEYS
        assert report["result"]["achieved"] is True
        assert report["result"]["n_used"] == 3

    def test_tiny_target_small_n_max(self, runner, config_file, tmp_path):
        out = tmp_path / "r"
        res = runner.invoke(main, ["precision", config_file, "--target", "1e-9",
                                   "--n0", "3", "--n-max", "6", "--out", str(out)])
        assert res.exit_code == 0, res.output
        report = json.loads((out / "precision.json").read_text())
        assert report["result"]["achieved"] is False
        assert report["result"]["n_used"] == 6

    def test_target_zero_rejected(self, runner, config_file, tmp_path):
        res = runner.invoke(main, ["precision", config_file, "--target", "0",
                                   "--out", str(tmp_path / "x")])
        assert res.exit_code == 2

    def test_target_nan_rejected_before_running(self, runner, config_file, tmp_path):
        out = tmp_path / "x"
        res = runner.invoke(main, ["precision", config_file, "--target", "nan",
                                   "--n0", "3", "--out", str(out)])
        assert res.exit_code == 2
        assert "--target" in res.output
        assert not out.exists()
