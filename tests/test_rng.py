import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdock_sim import ConfigurationError, stream_create
from crossdock_sim.rng import (
    SOURCE_IDS,
    derive_master_seed,
    exponential_inverse,
    triangular_inverse,
)


def draws(stream, n):
    return [stream.uniform() for _ in range(n)]


class TestStreams:
    def test_same_key_identical_sequence(self):
        a = stream_create(42, "arrival", 0)
        b = stream_create(42, "arrival", 0)
        assert draws(a, 1000) == draws(b, 1000)

    def test_distinct_replications_differ(self):
        a = stream_create(42, "arrival", 0)
        b = stream_create(42, "arrival", 1)
        assert draws(a, 1000) != draws(b, 1000)

    def test_distinct_sources_differ(self):
        a = stream_create(42, "arrival", 0)
        b = stream_create(42, "order_type", 0)
        assert draws(a, 1000) != draws(b, 1000)

    def test_distinct_sources_decorrelated(self):
        # pilot value for this seed: corr ~= 0.0021
        a = stream_create(42, "arrival", 0)
        b = stream_create(42, "order_type", 0)
        ua = np.array(draws(a, 10**5))
        ub = np.array(draws(b, 10**5))
        assert abs(np.corrcoef(ua, ub)[0, 1]) < 0.01

    def test_uniform_range_and_mean(self):
        s = stream_create(7, "arrival", 3)
        us = draws(s, 10**6)
        assert all(0.0 <= u < 1.0 for u in us)
        assert abs(sum(us) / len(us) - 0.5) < 0.002

    def test_draws_taken_counts_uniforms(self):
        s = stream_create(1, "arrival", 0)
        assert s.draws_taken == 0
        s.uniform()
        assert s.draws_taken == 1
        draws(s, 10)
        assert s.draws_taken == 11

    def test_one_draw_per_distribution_sample(self):
        s = stream_create(1, "arrival", 0)
        for _ in range(50):
            exponential_inverse(s.uniform(), 5.0)
        for _ in range(50):
            triangular_inverse(s.uniform(), 3.0, 7.0, 14.0)
        assert s.draws_taken == 100

    def test_key_validation(self):
        with pytest.raises(ConfigurationError):
            stream_create(1, "nonexistent", 0)
        with pytest.raises(ConfigurationError):
            stream_create(1, "arrival", -1)

    def test_negative_master_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="master_seed"):
            stream_create(-1, "arrival", 0)

    def test_all_sources_constructible(self):
        for src in SOURCE_IDS:
            assert 0.0 <= stream_create(9, src, 2).uniform() < 1.0

    def test_derived_seed_disjoint_and_deterministic(self):
        assert derive_master_seed(1, 2) == derive_master_seed(1, 2)
        assert derive_master_seed(1, 2) != derive_master_seed(1, 3)
        assert derive_master_seed(1, 2) != 1


class TestExponential:
    def test_inverse_at_zero(self):
        assert exponential_inverse(0.0, 5.0) == 0.0

    def test_inverse_forced_point(self):
        # u = 1 - e^-1 maps exactly to the mean
        assert exponential_inverse(1.0 - math.exp(-1.0), 7.0) == pytest.approx(7.0)

    def test_inverse_median(self):
        assert exponential_inverse(0.5, 10.0) == pytest.approx(10.0 * math.log(2.0))

    def test_moment(self):
        s = stream_create(3, "arrival", 0)
        xs = [exponential_inverse(s.uniform(), 5.0) for _ in range(10**6)]
        assert abs(sum(xs) / len(xs) - 5.0) < 0.005 * 5.0
        assert min(xs) >= 0.0


class TestTriangular:
    def test_inverse_endpoints(self):
        assert triangular_inverse(0.0, 3.0, 7.0, 14.0) == 3.0
        assert triangular_inverse(1.0, 3.0, 7.0, 14.0) == pytest.approx(14.0)

    def test_symmetric_median_is_mode(self):
        assert triangular_inverse(0.5, 0.0, 1.0, 2.0) == pytest.approx(1.0)

    def test_closed_form_below_mode(self):
        # c = 4/11, u = 0.25 < c: 3 + sqrt(0.25 * 11 * 4) = 3 + sqrt(11)
        got = triangular_inverse(0.25, 3.0, 7.0, 14.0)
        assert got == pytest.approx(3.0 + math.sqrt(11.0), abs=1e-12)

    def test_moment(self):
        s = stream_create(3, "manual_service_point_A", 0)
        xs = [triangular_inverse(s.uniform(), 3.0, 7.0, 14.0) for _ in range(10**6)]
        mean = (3.0 + 7.0 + 14.0) / 3.0
        assert abs(sum(xs) / len(xs) - mean) < 0.005 * mean

    def test_range(self):
        s = stream_create(11, "auto_service_point_B", 5)
        xs = [triangular_inverse(s.uniform(), 1.0, 2.0, 4.0) for _ in range(10**4)]
        assert all(1.0 <= x <= 4.0 for x in xs)


class TestMonotonicity:
    def test_inverse_transforms_monotone_on_grid(self):
        grid = [i / 200.0 for i in range(201)]
        exp_vals = [exponential_inverse(min(u, 0.999999), 5.0) for u in grid]
        tri_vals = [triangular_inverse(u, 3.0, 7.0, 14.0) for u in grid]
        assert exp_vals == sorted(exp_vals)
        assert tri_vals == sorted(tri_vals)

    @settings(max_examples=200, deadline=None)
    @given(
        u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        lo=st.floats(min_value=0.0, max_value=100.0),
        width=st.floats(min_value=1e-6, max_value=100.0),
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_triangular_in_bounds(self, u, lo, width, frac):
        hi = lo + width
        mode = lo + frac * width
        x = triangular_inverse(u, lo, mode, hi)
        assert lo - 1e-9 <= x <= hi + 1e-9
