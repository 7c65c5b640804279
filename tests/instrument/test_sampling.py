"""Tests for the Bernoulli/geometric sampling machinery."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.instrument.sampling import (
    MIN_ADAPTIVE_RATE,
    SamplingPlan,
    adaptive_rates,
    geometric_gap,
)


class TestGeometricGap:
    def test_rate_one_always_samples(self):
        assert geometric_gap(1.0, 0.5) == 1
        assert geometric_gap(1.0, 0.999) == 1

    def test_gaps_are_positive(self):
        rng = random.Random(0)
        for _ in range(200):
            assert geometric_gap(0.01, rng.random()) >= 1

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            geometric_gap(0.0, 0.5)
        with pytest.raises(ValueError):
            geometric_gap(1.5, 0.5)

    def test_mean_gap_matches_geometric_distribution(self):
        """E[gap] for Geometric(p) is 1/p; check within 10%."""
        rng = random.Random(42)
        rate = 0.05
        gaps = [geometric_gap(rate, rng.random()) for _ in range(20000)]
        mean = sum(gaps) / len(gaps)
        assert mean == pytest.approx(1 / rate, rel=0.1)

    @settings(max_examples=50, deadline=None)
    @given(rate=st.floats(0.001, 1.0), u=st.floats(1e-9, 1 - 1e-9))
    def test_gap_is_deterministic_in_inputs(self, rate, u):
        assert geometric_gap(rate, u) == geometric_gap(rate, u)


class TestAdaptiveRates:
    def test_hot_sites_get_low_rates(self):
        rates = adaptive_rates([10000.0], target_samples=100)
        assert rates[0] == pytest.approx(0.01)

    def test_rare_sites_get_rate_one(self):
        """Sites reached fewer than `target` times per run sample always."""
        rates = adaptive_rates([5.0, 99.0], target_samples=100)
        assert rates.tolist() == [1.0, 1.0]

    def test_rate_floor_clamps_extremely_hot_sites(self):
        rates = adaptive_rates([10 ** 9], target_samples=100)
        assert rates[0] == MIN_ADAPTIVE_RATE

    def test_unreached_sites_get_rate_one(self):
        rates = adaptive_rates([0.0])
        assert rates[0] == 1.0

    def test_intermediate_site_rate_is_target_over_count(self):
        rates = adaptive_rates([400.0], target_samples=100)
        assert rates[0] == pytest.approx(0.25)


class TestSamplingPlan:
    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            SamplingPlan.uniform(0.0)
        plan = SamplingPlan.uniform(0.5)
        assert plan.mode == "uniform" and plan.rate == 0.5

    def test_per_site_validation(self):
        with pytest.raises(ValueError):
            SamplingPlan.per_site([0.5, 0.0])
        plan = SamplingPlan.per_site([0.5, 1.0])
        assert plan.mode == "per-site"

    def test_adaptive_constructor_combines_training(self):
        plan = SamplingPlan.adaptive([1000.0, 3.0], target_samples=100)
        assert plan.site_rates[0] == pytest.approx(0.1)
        assert plan.site_rates[1] == 1.0
