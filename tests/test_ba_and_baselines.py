"""Tests for the composed BA protocol and the Figure 1 baselines."""

from __future__ import annotations

import pytest

from repro.baselines.naive_broadcast import run_naive_broadcast
from repro.baselines.sample_majority import SampleMajorityConfig, run_sample_majority
from repro.baselines.composed_ba import run_composed_ba
from repro.core.ba import BAConfig, BAProtocol
from repro.experiments.plan import ExperimentSpec


class TestBAConfig:
    def test_default_byzantine_count(self):
        assert BAConfig(n=60).byzantine_count == 10

    def test_explicit_t(self):
        assert BAConfig(n=60, t=7).byzantine_count == 7


class TestBAProtocol:
    @pytest.fixture(scope="class")
    def ba_result(self):
        return BAProtocol(BAConfig(n=64, seed=3)).run()

    def test_agreement_reached(self, ba_result):
        assert ba_result.agreement_reached
        assert ba_result.decided_value == ba_result.gstring

    def test_knowledge_after_ae_exceeds_half(self, ba_result):
        assert ba_result.knowledge_fraction_after_ae > 0.5

    @pytest.fixture(scope="class")
    def run_result(self):
        """The adapter's record of the same run: the stage sums live there."""
        return ExperimentSpec(n=64, protocol="full_ba", seed=3).run()

    def test_combined_metrics_add_up(self, run_result, ba_result):
        assert run_result.total_bits == (
            ba_result.ae_result.metrics.total_bits
            + ba_result.everywhere_result.metrics.total_bits
        )
        assert run_result.amortized_bits == pytest.approx(run_result.total_bits / 64)

    def test_total_rounds_combines_stages(self, run_result, ba_result):
        assert run_result.rounds == (
            (ba_result.ae_result.rounds or 0) + (ba_result.everywhere_result.rounds or 0)
        )

    def test_max_node_bits_at_least_each_stage(self, run_result, ba_result):
        assert run_result.max_node_bits >= ba_result.everywhere_result.metrics.max_node_bits

    def test_row_is_flat(self, run_result):
        row = run_result.to_dict()
        assert row["n"] == 64
        assert row["agreement"] is True

    def test_gstring_has_expected_length(self, ba_result):
        assert len(ba_result.gstring) == len(ba_result.scenario.gstring)

    def test_explicit_byzantine_ids_respected(self):
        byz = frozenset(range(8))
        result = BAProtocol(BAConfig(n=64, seed=4), byzantine_ids=byz).run()
        assert set(result.scenario.byzantine_ids) == set(byz)
        assert not set(result.everywhere_result.decisions) & byz

    def test_async_aer_stage(self):
        result = BAProtocol(BAConfig(n=48, seed=6, aer_mode="async")).run()
        assert result.everywhere_result.span is not None
        assert result.agreement_reached

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            BAProtocol(BAConfig(n=32, seed=1, aer_mode="warp")).run()

    def test_determinism(self):
        a = BAProtocol(BAConfig(n=48, seed=9)).run()
        b = BAProtocol(BAConfig(n=48, seed=9)).run()
        assert a.gstring == b.gstring
        assert a.everywhere_result.metrics == b.everywhere_result.metrics


class TestSampleMajorityBaseline:
    def test_config_sample_size_scales_with_sqrt(self):
        small = SampleMajorityConfig.for_system(64, string_length=24).sample_size
        big = SampleMajorityConfig.for_system(1024, string_length=40).sample_size
        assert big > small
        assert big < 1024  # sub-linear

    def test_agreement(self, small_scenario):
        result = run_sample_majority(small_scenario, seed=1)
        assert result.agreement_reached
        assert result.agreement_value() == small_scenario.gstring

    def test_load_balanced(self, small_scenario):
        result = run_sample_majority(small_scenario, seed=1)
        assert result.metrics.load_imbalance < 2.5

    def test_two_rounds(self, small_scenario):
        result = run_sample_majority(small_scenario, seed=1)
        assert result.rounds <= 3

    def test_reply_budget_limits_answers(self, small_scenario):
        config = SampleMajorityConfig(
            n=small_scenario.n, sample_size=5, reply_budget=1,
            string_length=len(small_scenario.gstring),
        )
        # With a crippled reply budget the protocol may fail, but it must not crash
        result = run_sample_majority(small_scenario, config=config, seed=1)
        assert result.n == small_scenario.n

    def test_determinism(self, small_scenario):
        a = run_sample_majority(small_scenario, seed=5)
        b = run_sample_majority(small_scenario, seed=5)
        assert a.metrics.total_bits == b.metrics.total_bits


class TestNaiveBroadcastBaseline:
    def test_agreement(self, small_scenario):
        result = run_naive_broadcast(small_scenario, seed=1)
        assert result.agreement_reached
        assert result.agreement_value() == small_scenario.gstring

    def test_quadratic_total_messages(self, small_scenario):
        result = run_naive_broadcast(small_scenario, seed=1)
        correct = len(small_scenario.correct_ids)
        assert result.metrics.total_messages == correct * (small_scenario.n - 1)

    def test_single_round(self, small_scenario):
        result = run_naive_broadcast(small_scenario, seed=1)
        assert result.rounds <= 2


class TestComposedBA:
    def test_sample_majority_composition(self):
        result = run_composed_ba(64, strategy="sample_majority", seed=2)
        assert result.agreement_reached
        assert result.ae_result.rounds + result.everywhere_result.rounds >= 2
        assert result.everywhere_result.metrics.amortized_bits > 0

    def test_naive_composition(self):
        result = run_composed_ba(64, strategy="naive", seed=2)
        assert result.agreement_reached

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            run_composed_ba(32, strategy="bogus", seed=0)

    def test_naive_costs_more_than_sampled_at_scale(self):
        sampled = run_composed_ba(96, strategy="sample_majority", seed=3)
        naive = run_composed_ba(96, strategy="naive", seed=3)
        assert naive.everywhere_result.metrics.total_bits > (
            sampled.everywhere_result.metrics.total_bits
        ) * 0.8  # naive is at least in the same ballpark or worse

    def test_row_contents(self):
        result = ExperimentSpec(
            n=48, protocol="composed_ba", seed=1, params={"strategy": "naive"}
        ).run()
        stages = (result.raw.ae_result, result.raw.everywhere_result)
        assert result.n == 48
        assert result.rounds == sum(stage.rounds for stage in stages)
        assert result.amortized_bits == pytest.approx(
            sum(stage.metrics.total_bits for stage in stages) / 48
        )
