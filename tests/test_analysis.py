import math
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats
from scipy.special import betaincinv

from crossdock_sim import (
    ComparisonError,
    ConfigurationError,
    InsufficientDataError,
    run_replications,
    summarize,
    t_quantile,
)
from crossdock_sim import analysis
from crossdock_sim.analysis import (
    halfwidth_table,
    paired_comparisons,
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


def incomplete_beta_quantile(df, p):
    """The t quantile through scipy's inverse regularized incomplete beta,
    sqrt(df (1 - x) / x) with x = betaincinv(df/2, 1/2, 2 (1 - p)): the
    formula `t_quantile` used while scipy was a runtime dependency."""
    x = betaincinv(0.5 * df, 0.5, 2.0 * (1.0 - p))
    return np.sqrt(df * (1.0 - x) / x)


class TestTQuantileAccuracy:
    DFS = np.array([*range(1, 1001), 2499, 4999, 9999])

    @pytest.mark.parametrize("p, rel", [(0.95, 1e-12), (0.975, 1e-12), (0.995, 1e-12),
                                        (0.6, 1e-10), (0.9, 1e-10), (0.9995, 1e-10)])
    def test_tracks_incomplete_beta_inversion(self, p, rel):
        # scipy's own inversion strays further than 1e-12 from the exact
        # quantile at large df away from the 0.95-0.995 band
        worst = max(abs(t_quantile(df, p) - ref) / ref for df, ref in
                    zip(self.DFS.tolist(), incomplete_beta_quantile(self.DFS, p).tolist()))
        assert worst <= rel

    @pytest.mark.parametrize("df", [1, 3, 30, 4999])
    def test_finite_and_increasing_into_the_far_tail(self, df):
        ps = [0.5 + 1e-9, *(k / 100 for k in range(51, 100)),
              *(1 - 10.0 ** -k for k in range(3, 13))]
        values = [t_quantile(df, p) for p in ps]
        assert all(map(math.isfinite, values))
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_median_call_under_four_reference_loops(self):
        """Each call is timed next to a fixed pure-Python loop, so the bound
        moves with the host's speed and load; a second tail evaluation per
        Newton step takes the ratio near 5."""
        calls, loops = [], []
        for df in range(1, 101):
            for p in (0.9, 0.95, 0.975, 0.995):
                start = time.perf_counter()
                t_quantile(df, p)
                middle = time.perf_counter()
                sum(math.sqrt(i) for i in range(1, 200))
                calls.append(middle - start)
                loops.append(time.perf_counter() - middle)
        assert statistics.median(calls) < 4.0 * statistics.median(loops)


def test_start_up_imports_no_scipy():
    """A fresh interpreter that imports the package and its CLI and builds
    the paper model, as the benchmark's start-up measure does, loads no
    scipy module."""
    root = Path(__file__).resolve().parent.parent
    config = root / "configs" / "paper-base.json"
    code = (f"import sys; sys.path.insert(0, {str(root / 'src')!r}); "
            "import crossdock_sim, crossdock_sim.cli; "
            "from crossdock_sim.model import build_model; "
            f"build_model(crossdock_sim.cli.load_config({str(config)!r})); "
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    assert proc.stdout.strip() == "[]"


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
        [res] = paired_comparisons(fast_config, fast_config, 10, (True,), 3)
        assert res.mean_diff == 0.0
        assert res.var_diff == 0.0
        assert res.half_width_diff == 0.0

    def test_identical_configs_independent_noisy(self, fast_config):
        [res] = paired_comparisons(fast_config, fast_config, 10, (False,), 3)
        assert res.mean_diff != 0.0
        assert res.var_diff > 0.0

    def test_variance_identity(self, fast_config):
        cfg_b = replace(fast_config, dispensers_per_point=2)
        for res in paired_comparisons(fast_config, cfg_b, 50, (True, False), 7):
            assert res.var_diff == pytest.approx(
                res.var_a + res.var_b - 2.0 * res.covariance, rel=1e-9, abs=1e-9
            )

    def test_crn_reduces_difference_variance(self, fast_config):
        # pilot (seed 12345, n=200): ratio ~= 7.9e-6
        cfg_b = replace(fast_config, dispensers_per_point=2)
        crn, ind = paired_comparisons(fast_config, cfg_b, 200, (True, False), 12345)
        assert crn.var_diff < ind.var_diff
        assert crn.var_diff / ind.var_diff <= 0.7

    def test_confounded_configs_rejected(self, fast_config):
        slower = replace(fast_config, horizon=5000.0)
        with pytest.raises(ComparisonError):
            paired_comparisons(fast_config, slower, 10, (True,), 1)

    def test_n_too_small(self, fast_config):
        with pytest.raises(ConfigurationError):
            paired_comparisons(fast_config, fast_config, 1, (True,), 1)


class TestHalfwidthTable:
    def test_single_level_decrement_zero(self, fast_config):
        table = halfwidth_table(fast_config, [20], seed=4)
        assert len(table.rows) == 1
        assert table.first_minus_last_halfwidth_default_stream == 0.0
        assert table.first_minus_last_halfwidth_crn == 0.0

    def test_one_config_run_in_both_stream_modes(self, fast_config):
        """The input's own crn_mode is ignored, and each level's half widths
        are those of the first n replications in each stream mode."""
        levels = [10, 20, 30]
        table = halfwidth_table(fast_config, levels, seed=4)
        assert table == halfwidth_table(fast_config.with_crn_mode("default_stream"),
                                        levels, seed=4)
        costs = {mode: [o.total_usage_cost for o in run_replications(
                     fast_config.with_crn_mode(mode), 4, range(levels[-1]))]
                 for mode in ("default_stream", "dedicated_streams")}
        for row in table.rows:
            n = row.replications
            assert row.halfwidth_default_stream == summarize(
                costs["default_stream"][:n]).half_width
            assert row.halfwidth_crn == summarize(costs["dedicated_streams"][:n]).half_width

    def test_row_shape_and_metrics(self, fast_config):
        levels = [10, 20, 40]
        table = halfwidth_table(fast_config, levels, seed=4)
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
                halfwidth_table(fast_config, bad, seed=1)
