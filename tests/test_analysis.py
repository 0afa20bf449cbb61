import math
from dataclasses import replace

import pytest
from scipy import stats as scipy_stats

from crossdock_sim import (
    ComparisonError,
    ConfigurationError,
    InsufficientDataError,
    summarize,
    t_quantile,
)
from crossdock_sim import analysis
from crossdock_sim.analysis import (
    halfwidth_table,
    paired_comparison,
    replicate_to_precision,
)


def flat_rates(paper_config):
    """Rates with busy == idle make cost deterministic (capacity * horizon)."""
    data = paper_config.to_dict()
    data["cost_rates"] = {
        c: {"busy_rate": 10.0, "idle_rate": 10.0, "per_use": 0.0}
        for c in ("skilled", "unskilled", "dispenser")
    }
    from crossdock_sim import ModelConfig

    return ModelConfig.from_dict(data)


class TestTQuantile:
    def test_published_values(self):
        assert t_quantile(2, 0.975) == pytest.approx(4.3027, abs=1e-3)
        assert t_quantile(99, 0.975) == pytest.approx(1.9842, abs=1e-3)
        assert t_quantile(10, 0.95) == pytest.approx(1.8125, abs=1e-3)

    def test_median_is_zero(self):
        for df in (1, 5, 100, 10_000):
            assert t_quantile(df, 0.5) == 0.0

    def test_symmetry(self):
        assert t_quantile(7, 0.025) == pytest.approx(-t_quantile(7, 0.975))

    def test_against_independent_route(self):
        # scipy.stats goes through stdtrit, a different code path than
        # the incomplete-beta inversion used here
        for df in (1, 2, 5, 30, 99, 1000, 10_000):
            for p in (0.6, 0.9, 0.95, 0.975, 0.995):
                assert t_quantile(df, p) == pytest.approx(
                    scipy_stats.t.ppf(p, df), abs=1e-6
                )

    def test_domain_errors(self):
        with pytest.raises(ConfigurationError):
            t_quantile(5, 0.0)
        with pytest.raises(ConfigurationError):
            t_quantile(5, 1.0)
        with pytest.raises(ConfigurationError):
            t_quantile(0, 0.9)


class TestSummarize:
    def test_constant_values(self):
        s = summarize([5.0, 5.0, 5.0, 5.0], 0.95)
        assert (s.mean, s.sd, s.half_width) == (5.0, 0.0, 0.0)

    @pytest.mark.parametrize("value", [833.3333333333333, 0.1, -2.5e-7, 1e300 / 3])
    @pytest.mark.parametrize("n", [2, 3, 5, 50])
    def test_identical_values_zero_sd(self, value, n):
        s = summarize([value] * n, 0.95)
        assert (s.mean, s.sd, s.half_width) == (value, 0.0, 0.0)

    def test_three_values_closed_form(self):
        s = summarize([1.0, 2.0, 3.0], 0.95)
        assert s.mean == pytest.approx(2.0)
        assert s.sd == pytest.approx(1.0)
        assert s.half_width == pytest.approx(4.3027 / math.sqrt(3.0), abs=1e-3)

    def test_single_value_rejected(self):
        with pytest.raises(InsufficientDataError):
            summarize([1.0], 0.95)

    def test_half_width_decreases_in_n(self):
        # t(n-1) * sd / sqrt(n) with fixed sd is strictly decreasing
        widths = [t_quantile(n - 1, 0.975) / math.sqrt(n) for n in range(2, 200)]
        assert all(a > b for a, b in zip(widths, widths[1:]))


class TestReplicateToPrecision:
    def test_huge_target_achieved_at_n0(self, fast_config):
        res = replicate_to_precision(fast_config, 1, 0.95, 1e12, 5, 100)
        assert res.achieved and res.n_used == 5

    def test_deterministic_model_achieves_immediately(self, paper_config):
        cfg = replace(flat_rates(paper_config), horizon=500.0)
        res = replicate_to_precision(cfg, 1, 0.95, 1.0, 3, 50)
        assert res.achieved
        assert res.n_used == 3
        assert res.final.half_width == 0.0

    def test_halved_target_growth_envelope(self, fast_config):
        # pilot (seed 12345): n0=10 half width 11.983, n_used 68
        from crossdock_sim import run_replications

        outs = run_replications(fast_config, 12345, range(10))
        hw0 = summarize([o.total_usage_cost for o in outs]).half_width
        res = replicate_to_precision(fast_config, 12345, 0.95, hw0 / 2, 10, 1000)
        assert res.achieved
        assert 20 <= res.n_used <= 80
        assert res.n_used == 68

    def test_unreachable_target_stops_at_n_max(self, fast_config):
        res = replicate_to_precision(fast_config, 1, 0.95, 1e-9, 5, 12)
        assert not res.achieved
        assert res.n_used == 12

    def test_parameter_validation(self, fast_config):
        with pytest.raises(ConfigurationError):
            replicate_to_precision(fast_config, 1, 0.95, 1.0, 1, 10)
        with pytest.raises(ConfigurationError):
            replicate_to_precision(fast_config, 1, 0.95, 1.0, 5, 4)

    def test_nan_target_rejected_before_running(self, fast_config, monkeypatch):
        monkeypatch.setattr(analysis, "run_replications", None)  # any call fails
        with pytest.raises(ConfigurationError, match="target"):
            replicate_to_precision(fast_config, 1, 0.95, math.nan, 5, 10)


class TestPairedComparison:
    def test_identical_configs_crn_all_zero(self, fast_config):
        res = paired_comparison(fast_config, fast_config, 10, True, 3)
        assert res.mean_diff == 0.0
        assert res.var_diff == 0.0
        assert res.half_width_diff == 0.0

    def test_identical_configs_independent_noisy(self, fast_config):
        res = paired_comparison(fast_config, fast_config, 10, False, 3)
        assert res.mean_diff != 0.0
        assert res.var_diff > 0.0

    def test_variance_identity(self, fast_config):
        cfg_b = replace(fast_config, dispensers_per_point=2)
        for crn in (True, False):
            res = paired_comparison(fast_config, cfg_b, 50, crn, 7)
            assert res.var_diff == pytest.approx(
                res.var_a + res.var_b - 2.0 * res.covariance, rel=1e-9, abs=1e-9
            )

    def test_crn_reduces_difference_variance(self, fast_config):
        # pilot (seed 12345, n=200): ratio ~= 7.9e-6
        cfg_b = replace(fast_config, dispensers_per_point=2)
        crn = paired_comparison(fast_config, cfg_b, 200, True, 12345)
        ind = paired_comparison(fast_config, cfg_b, 200, False, 12345)
        assert crn.var_diff < ind.var_diff
        assert crn.var_diff / ind.var_diff <= 0.7

    def test_confounded_configs_rejected(self, fast_config):
        slower = replace(fast_config, horizon=5000.0)
        with pytest.raises(ComparisonError):
            paired_comparison(fast_config, slower, 10, True, 1)

    def test_n_too_small(self, fast_config):
        with pytest.raises(ConfigurationError):
            paired_comparison(fast_config, fast_config, 1, True, 1)


class TestHalfwidthTable:
    def test_single_level_decrement_zero(self, fast_config):
        table = halfwidth_table(
            fast_config.with_crn_mode("default_stream"), fast_config, [20], seed=4
        )
        assert len(table.rows) == 1
        assert table.first_minus_last_halfwidth_default_stream == 0.0
        assert table.first_minus_last_halfwidth_crn == 0.0

    def test_identical_models_zero_differences(self, fast_config):
        table = halfwidth_table(fast_config, fast_config, [10, 20, 30], seed=4)
        assert all(r.difference == 0.0 for r in table.rows)
        assert table.sum_of_level_differences == 0.0

    def test_row_shape_and_metrics(self, fast_config):
        levels = [10, 20, 40]
        table = halfwidth_table(
            fast_config.with_crn_mode("default_stream"), fast_config, levels, seed=4
        )
        assert [r.replications for r in table.rows] == levels
        first, last = table.rows[0], table.rows[-1]
        assert table.first_minus_last_halfwidth_default_stream == pytest.approx(
            first.halfwidth_default_stream - last.halfwidth_default_stream
        )
        assert table.sum_of_level_differences == pytest.approx(
            math.fsum(r.difference for r in table.rows)
        )

    def test_levels_validation(self, fast_config):
        for bad in ([], [5, 3], [2, 2, 4], [1, 10]):
            with pytest.raises(ConfigurationError):
                halfwidth_table(fast_config, fast_config, bad, seed=1)
