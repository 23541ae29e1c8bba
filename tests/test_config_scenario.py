"""Tests for the AER configuration and scenario construction."""

from __future__ import annotations

import inspect
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import knowledgeable_count
from repro.core.config import AERConfig
from repro.core.scenario import AERScenario, build_aer_nodes, make_scenario


class TestAERConfig:
    def test_for_system_defaults(self):
        config = AERConfig.for_system(128)
        assert config.n == 128
        assert config.quorum_size % 2 == 1
        assert config.string_length == 4 * 7
        assert config.label_space == 128 * 128
        assert config.answer_budget == 49

    def test_quorum_multiplier_scales_quorums(self):
        small = AERConfig.for_system(128, quorum_multiplier=1.0)
        big = AERConfig.for_system(128, quorum_multiplier=3.0)
        assert big.quorum_size > small.quorum_size

    def test_with_replaces_fields(self):
        config = AERConfig.for_system(64)
        changed = config.with_(answer_budget=99)
        assert changed.answer_budget == 99
        assert changed.n == config.n
        assert config.answer_budget != 99  # original untouched (frozen)

    @pytest.mark.parametrize("n", [12, 90, 120])
    def test_max_byzantine_below_third(self, n):
        # n = 12 and 120 put the bound (1/3 − ε)·n on a whole number
        config = AERConfig.for_system(n)
        t = config.max_byzantine()
        bound = (1 / 3 - config.epsilon) * n
        assert t < bound <= t + 1

    def test_sampler_spec_matches_config(self):
        config = AERConfig.for_system(64, sampler_seed=9)
        spec = config.sampler_spec()
        assert spec.n == 64
        assert spec.seed == 9
        assert spec.quorum_size == config.quorum_size

    def test_build_samplers_names(self):
        suite = AERConfig.for_system(32).build_samplers()
        assert suite.push.name == "I"
        assert suite.pull.name == "H"
        assert suite.poll.name == "J"

    def test_size_model_label_space(self):
        config = AERConfig.for_system(32)
        assert config.size_model().label_space == config.label_space

    def test_same_seed_same_samplers(self):
        a = AERConfig.for_system(48, sampler_seed=1).build_samplers()
        b = AERConfig.for_system(48, sampler_seed=1).build_samplers()
        assert a.push.quorum("s", 0) == b.push.quorum("s", 0)
        assert a.poll.poll_list(0, 5) == b.poll.poll_list(0, 5)

    def test_different_seed_different_samplers(self):
        a = AERConfig.for_system(48, sampler_seed=1).build_samplers()
        b = AERConfig.for_system(48, sampler_seed=2).build_samplers()
        assert a.push.quorum("s", 0) != b.push.quorum("s", 0)


#: the knobs every ``make_scenario`` call states (the spec's defaults)
SPEC_KNOBS = dict(knowledge_fraction=0.78, wrong_candidate_mode="random")


class TestMakeScenario:
    def test_partition_is_complete(self):
        scenario = make_scenario(60, t=10, **SPEC_KNOBS, seed=0)
        assert len(scenario.correct_ids) + len(scenario.byzantine_ids) == 60

    def test_scenario_knobs_have_no_default(self):
        parameters = inspect.signature(make_scenario).parameters
        for knob in ("t", "knowledge_fraction", "wrong_candidate_mode"):
            assert parameters[knob].default is inspect.Parameter.empty, knob
        with pytest.raises(ValueError, match="give t or an explicit byzantine_ids"):
            make_scenario(60, t=None, **SPEC_KNOBS, seed=0)

    def test_explicit_t(self):
        scenario = make_scenario(60, t=6, **SPEC_KNOBS, seed=0)
        assert len(scenario.byzantine_ids) == 6

    def test_knowledge_fraction_met(self):
        scenario = make_scenario(
            64, t=10, knowledge_fraction=0.7, wrong_candidate_mode="random", seed=1
        )
        assert scenario.knowledge_fraction_of_all > 0.5
        assert len(scenario.knowledgeable_ids) >= int(0.7 * 64)

    def test_gstring_length_matches_config(self):
        config = AERConfig.for_system(64)
        scenario = make_scenario(64, config=config, t=10, **SPEC_KNOBS, seed=2)
        assert len(scenario.gstring) == config.string_length

    def test_explicit_gstring_used(self):
        gstring = "1" * AERConfig.for_system(32).string_length
        scenario = make_scenario(32, t=5, **SPEC_KNOBS, gstring=gstring, seed=3)
        assert scenario.gstring == gstring

    def test_explicit_byzantine_ids(self):
        scenario = make_scenario(32, t=4, **SPEC_KNOBS, byzantine_ids=[0, 1, 2, 3], seed=0)
        assert scenario.byzantine_ids == frozenset({0, 1, 2, 3})
        assert 0 not in scenario.candidates

    def test_byzantine_ids_without_t_derives_t(self):
        # t comes from the explicit corrupt set
        scenario = make_scenario(32, t=None, **SPEC_KNOBS, byzantine_ids=[1, 2, 3], seed=0)
        assert scenario.byzantine_ids == frozenset({1, 2, 3})
        assert len(scenario.correct_ids) == 29

    def test_byzantine_ids_conflicting_t_rejected(self):
        with pytest.raises(ValueError, match="conflict"):
            make_scenario(32, t=5, **SPEC_KNOBS, byzantine_ids=[0, 1, 2], seed=0)

    def test_byzantine_ids_conflicting_with_default_sized_t_rejected(self):
        # t == n // 4 used to slip through an escape hatch in the check
        with pytest.raises(ValueError, match="conflict"):
            make_scenario(32, t=8, **SPEC_KNOBS, byzantine_ids=[0, 1, 2], seed=0)

    def test_wrong_candidate_default_mode(self):
        scenario = make_scenario(
            64, t=10, knowledge_fraction=0.78, wrong_candidate_mode="default", seed=4
        )
        non_knowing = [
            s for i, s in scenario.candidates.items() if s != scenario.gstring
        ]
        assert all(set(s) == {"0"} for s in non_knowing)

    def test_wrong_candidate_common_mode(self):
        scenario = make_scenario(
            64, t=10, knowledge_fraction=0.78, wrong_candidate_mode="common_wrong", seed=4
        )
        non_knowing = {
            s for s in scenario.candidates.values() if s != scenario.gstring
        }
        assert len(non_knowing) <= 1

    def test_wrong_candidate_random_mode(self):
        scenario = make_scenario(64, t=8, knowledge_fraction=0.6, wrong_candidate_mode="random", seed=4)
        non_knowing = [s for s in scenario.candidates.values() if s != scenario.gstring]
        assert len(set(non_knowing)) > 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            make_scenario(
                32, t=5, knowledge_fraction=0.78, wrong_candidate_mode="bogus", seed=0
            )

    def test_t_too_large_rejected(self):
        with pytest.raises(ValueError):
            make_scenario(32, t=32, **SPEC_KNOBS, seed=0)

    def test_impossible_knowledge_rejected(self):
        # half the nodes are Byzantine: a >1/2 knowledgeable fraction is impossible
        with pytest.raises(ValueError, match="cannot make 29 of 16 correct nodes"):
            make_scenario(32, t=16, knowledge_fraction=0.9, wrong_candidate_mode="random", seed=0)

    def test_deterministic_given_seed(self):
        a = make_scenario(48, t=8, **SPEC_KNOBS, seed=7)
        b = make_scenario(48, t=8, **SPEC_KNOBS, seed=7)
        assert a.gstring == b.gstring
        assert a.byzantine_ids == b.byzantine_ids
        assert a.candidates == b.candidates

    def test_different_seeds_differ(self):
        one, two = (make_scenario(48, t=8, **SPEC_KNOBS, seed=seed) for seed in (1, 2))
        assert one.gstring != two.gstring

    @given(st.integers(min_value=24, max_value=96), st.integers(min_value=0, max_value=5))
    @settings(max_examples=15, deadline=None)
    def test_hypothesis_validation_always_passes_for_defaults(self, n, seed):
        scenario = make_scenario(
            n, t=n // 6, knowledge_fraction=0.7, wrong_candidate_mode="random", seed=seed
        )
        scenario.validate()  # must not raise
        assert scenario.knowledge_fraction_of_all > 0.5


class TestKnowledgeableCount:
    """The feasibility arithmetic ``make_scenario`` and ``ExperimentSpec.validate`` share."""

    @pytest.mark.parametrize(
        "n, t, kf, target",
        [(64, 10, 0.78, 50), (64, 10, 0.5, 33), (5, 1, 0.78, 4), (32, 0, 0.0, 17)],
    )
    def test_target(self, n, t, kf, target):
        assert knowledgeable_count(n, t, kf) == target

    def test_infeasible_names_the_knobs(self):
        with pytest.raises(ValueError, match="cannot make 61 of 54 correct nodes") as err:
            knowledgeable_count(64, 10, 0.95)
        assert "knowledge_fraction=0.95" in str(err.value)

    @given(
        st.integers(min_value=2, max_value=400),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_make_scenario(self, n, kf, seed):
        t = max(1, n // 6)
        try:
            target = knowledgeable_count(n, t, kf)
        except ValueError:
            with pytest.raises(ValueError, match="cannot make"):
                make_scenario(n, t=t, knowledge_fraction=kf, wrong_candidate_mode="random", seed=seed)
        else:
            scenario = make_scenario(
                n, t=t, knowledge_fraction=kf, wrong_candidate_mode="random", seed=seed
            )
            assert len(scenario.knowledgeable_ids) == target


class TestScenarioValidation:
    def test_overlap_rejected(self):
        scenario = AERScenario(
            n=4, gstring="01", byzantine_ids=frozenset({0}), candidates={0: "01", 1: "01", 2: "01", 3: "01"}
        )
        with pytest.raises(ValueError):
            scenario.validate()

    def test_incomplete_partition_rejected(self):
        scenario = AERScenario(
            n=4, gstring="01", byzantine_ids=frozenset({0}), candidates={1: "01", 2: "01"}
        )
        with pytest.raises(ValueError):
            scenario.validate()

    def test_insufficient_knowledge_rejected(self):
        scenario = AERScenario(
            n=4,
            gstring="01",
            byzantine_ids=frozenset({0}),
            candidates={1: "01", 2: "00", 3: "00"},
        )
        with pytest.raises(ValueError):
            scenario.validate()


class TestBuildNodes:
    def test_one_node_per_correct_id(self, small_scenario, small_config):
        nodes = build_aer_nodes(small_scenario, small_config)
        assert [node.node_id for node in nodes] == small_scenario.correct_ids

    def test_nodes_share_sampler_suite(self, small_scenario, small_config):
        nodes = build_aer_nodes(small_scenario, small_config)
        suites = {id(node.samplers) for node in nodes}
        assert len(suites) == 1

    def test_initial_candidates_match_scenario(self, small_scenario, small_config):
        nodes = build_aer_nodes(small_scenario, small_config)
        for node in nodes:
            assert node.initial_candidate == small_scenario.candidates[node.node_id]
