"""Tests for the analysis helpers (growth fitting, statistics, experiment plumbing)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.complexity import (
    classify_growth,
    fit_growth,
    growth_exponent,
    polylog_ratio,
)
from repro.analysis.experiments import format_table
from repro.analysis.statistics import SuccessEstimate, estimate_success, wilson_interval


class TestGrowthFitting:
    NS = [32, 64, 128, 256, 512]

    def test_linear_data_exponent_one(self):
        costs = [3.0 * n for n in self.NS]
        assert growth_exponent(self.NS, costs) == pytest.approx(1.0, abs=0.01)

    def test_sqrt_data_exponent_half(self):
        costs = [5.0 * math.sqrt(n) for n in self.NS]
        assert growth_exponent(self.NS, costs) == pytest.approx(0.5, abs=0.01)

    def test_polylog_data_exponent_below_sqrt_and_linear(self):
        # Over a finite range log²(n) looks like a small power of n (~0.4 here);
        # the important property is that it sits clearly below 0.5 and 1.0.
        costs = [7.0 * math.log2(n) ** 2 for n in self.NS]
        exponent = growth_exponent(self.NS, costs)
        assert exponent < 0.48
        assert exponent < growth_exponent(self.NS, [float(n) for n in self.NS])

    def test_polylog_fit_recovers_exponent(self):
        costs = [2.0 * math.log2(n) ** 2 for n in self.NS]
        fit = fit_growth(self.NS, costs, model="polylog")
        assert fit.exponent == pytest.approx(2.0, abs=0.05)
        assert fit.r_squared > 0.99

    def test_power_fit_predict(self):
        costs = [4.0 * n for n in self.NS]
        fit = fit_growth(self.NS, costs, model="power")
        assert fit.predict(1000) == pytest.approx(4000.0, rel=0.05)

    def test_polylog_fit_predict(self):
        costs = [3.0 * math.log2(n) for n in self.NS]
        fit = fit_growth(self.NS, costs, model="polylog")
        assert fit.predict(256) == pytest.approx(3.0 * 8, rel=0.1)

    def test_polylog_ratio_flat_for_log_squared(self):
        costs = [10.0 * math.log2(n) ** 2 for n in self.NS]
        assert polylog_ratio(self.NS, costs) == pytest.approx(1.0, abs=0.01)

    def test_polylog_ratio_grows_for_linear(self):
        costs = [float(n) for n in self.NS]
        assert polylog_ratio(self.NS, costs) > 3.0

    def test_classify_growth_keys(self):
        summary = classify_growth(self.NS, [float(n) for n in self.NS])
        assert set(summary) == {
            "power_exponent", "power_r2", "polylog_exponent", "polylog_r2", "polylog_ratio",
        }

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            fit_growth(self.NS, [1.0] * 5, model="exp")

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            fit_growth([1, 2], [1.0], model="power")

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_growth([64], [1.0], model="power")

    def test_empty_polylog_ratio(self):
        assert polylog_ratio([], []) == 1.0

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.2, max_value=1.5),
    )
    @settings(max_examples=25, deadline=None)
    def test_hypothesis_power_exponent_recovered(self, coefficient, exponent):
        ns = [32, 64, 128, 256]
        costs = [coefficient * n**exponent for n in ns]
        assert growth_exponent(ns, costs) == pytest.approx(exponent, abs=0.02)


class TestStatistics:
    def test_wilson_interval_contains_phat(self):
        low, high = wilson_interval(8, 10)
        assert low < 0.8 < high

    def test_wilson_interval_zero_failures_not_degenerate(self):
        low, high = wilson_interval(10, 10)
        assert high == 1.0
        assert low < 1.0

    def test_wilson_interval_zero_trials(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_wilson_interval_bad_input(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 3)

    def test_estimate_success_counts(self):
        estimate = estimate_success(lambda seed: seed % 2 == 0, trials=10)
        assert estimate.successes == 5
        assert estimate.rate == 0.5
        assert estimate.low < 0.5 < estimate.high

    def test_estimate_success_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            estimate_success(lambda seed: True, trials=0)

    def test_estimate_row(self):
        estimate = SuccessEstimate(successes=3, trials=4, low=0.2, high=0.99)
        row = estimate.row()
        assert row["rate"] == 0.75


class TestExperimentPlumbing:
    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "bb": "x"}, {"a": 22, "bb": "yy"}], title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "no rows" in format_table([], title="empty")
