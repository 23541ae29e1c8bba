"""Tests for the adversary framework and its strategies."""

from __future__ import annotations

import random

import pytest

from repro.adversary.base import Adversary, AdversaryKnowledge
from repro.adversary.cornering import CorneringAdversary
from repro.adversary.corruption import quorum_targeting_corrupt_set, random_corrupt_set
from repro.adversary.delays import SlowKnowledgeableDelays, TargetedDelayAdversary
from repro.adversary.flooding import PushFloodAdversary, QuorumTargetedFloodAdversary
from repro.adversary.strategies import (
    EquivocatingPushAdversary,
    RandomNoiseAdversary,
    SilentAdversary,
    WrongAnswerAdversary,
)
from repro.core.messages import PollMessage
from repro.net.asynchronous import MIN_DELAY
from repro.net.kernel import SendRecord
from repro.runner import make_adversary, run_aer


@pytest.fixture(scope="module")
def knowledge(small_config_module, small_scenario_module, small_samplers_module):
    return AdversaryKnowledge(
        config=small_config_module,
        samplers=small_samplers_module,
        scenario=small_scenario_module,
    )


# module-scoped clones of the session fixtures (pytest cannot mix scopes here)
@pytest.fixture(scope="module")
def small_config_module():
    from repro.core.config import AERConfig

    return AERConfig.for_system(32, sampler_seed=11)


@pytest.fixture(scope="module")
def small_scenario_module(small_config_module):
    from repro.core.scenario import make_scenario

    return make_scenario(32, config=small_config_module, t=5, knowledge_fraction=0.78, seed=11)


@pytest.fixture(scope="module")
def small_samplers_module(small_config_module):
    return small_config_module.build_samplers()


class TestCorruptionSelectors:
    def test_random_corrupt_set_size(self):
        corrupt = random_corrupt_set(50, 10, random.Random(0))
        assert len(corrupt) == 10
        assert all(0 <= i < 50 for i in corrupt)

    def test_random_corrupt_set_bounds(self):
        with pytest.raises(ValueError):
            random_corrupt_set(10, 11, random.Random(0))

    def test_quorum_targeting_set_size(self, small_samplers_module):
        corrupt = quorum_targeting_corrupt_set(
            32, 8, small_samplers_module, target_string="11110000", rng=random.Random(1)
        )
        assert len(corrupt) == 8

    def test_quorum_targeting_concentrates_in_quorums(self, small_samplers_module):
        target = "1010101010"
        corrupt = quorum_targeting_corrupt_set(
            32, 10, small_samplers_module, target_string=target, rng=random.Random(2), victim_count=2
        )
        # at least one victim's push quorum should be mostly corrupted
        best = 0
        for victim in range(32):
            quorum = small_samplers_module.push.quorum(target, victim)
            best = max(best, sum(1 for m in quorum if m in corrupt))
        assert best >= len(quorum) // 2

    def test_quorum_targeting_bounds(self, small_samplers_module):
        with pytest.raises(ValueError):
            quorum_targeting_corrupt_set(10, 20, small_samplers_module, "s", random.Random(0))


class TestAdversaryBase:
    def test_byzantine_ids_frozen(self, knowledge):
        adversary = Adversary([1, 2, 3], knowledge)
        assert adversary.byzantine_ids == frozenset({1, 2, 3})

    def test_context_required_for_sending(self, knowledge):
        adversary = Adversary([1], knowledge)
        with pytest.raises(RuntimeError):
            adversary.send_as(1, 0, PollMessage(candidate="0", label=0))

    def test_knowledge_accessors(self, knowledge, small_scenario_module):
        assert knowledge.gstring == small_scenario_module.gstring
        assert knowledge.correct_ids == small_scenario_module.correct_ids
        assert knowledge.knowledgeable_ids == small_scenario_module.knowledgeable_ids

    def test_default_delay_is_none(self, knowledge):
        adversary = Adversary([1], knowledge)
        record = SendRecord(0, 1, PollMessage(candidate="0", label=0), 0.0)
        assert adversary.delay_for(record) is None


class TestWatchesSends:
    """``watches_sends`` is derived from which hooks the class overrides."""

    @pytest.mark.parametrize(
        "cls", [Adversary, SilentAdversary, WrongAnswerAdversary,
                PushFloodAdversary, QuorumTargetedFloodAdversary],
    )
    def test_send_blind_classes(self, cls, knowledge):
        assert cls([1], knowledge).watches_sends is False

    @pytest.mark.parametrize("name", ["cornering", "cornering_nodelay", "slow_knowledgeable"])
    def test_registered_watchers(self, name, small_scenario_module, small_config_module, small_samplers_module):
        adversary = make_adversary(name, small_scenario_module, small_config_module, small_samplers_module)
        assert adversary.watches_sends is True

    def test_unregistered_watcher(self, knowledge):
        assert TargetedDelayAdversary([1], knowledge, victims=[3]).watches_sends is True

    @pytest.mark.parametrize("hook", ["observe_send", "delay_for"])
    def test_overriding_one_hook_is_enough(self, hook, knowledge):
        cls = type("OneHook", (SilentAdversary,), {hook: lambda self, record: None})
        assert cls([1], knowledge).watches_sends is True

    def test_read_only_and_immune_to_a_wrapper_on_the_base_class(self, knowledge, monkeypatch):
        adversary = SilentAdversary([1], knowledge)
        with pytest.raises(AttributeError):
            adversary.watches_sends = True
        # what a profiler does: replace the hook on Adversary itself
        original = Adversary.observe_send
        monkeypatch.setattr(Adversary, "observe_send", lambda self, record: original(self, record))
        assert adversary.watches_sends is False
        assert CorneringAdversary([1], knowledge).watches_sends is True


class TestStrategyRegistry:
    def test_make_adversary_none(self, small_scenario_module, small_config_module, small_samplers_module):
        adversary = make_adversary("none", small_scenario_module, small_config_module, small_samplers_module)
        assert adversary is None

    def test_make_adversary_unknown_name(self, small_scenario_module, small_config_module, small_samplers_module):
        with pytest.raises(ValueError):
            make_adversary("nope", small_scenario_module, small_config_module, small_samplers_module)

    @pytest.mark.parametrize(
        "name,expected_type",
        [
            ("silent", SilentAdversary),
            ("noise", RandomNoiseAdversary),
            ("equivocate", EquivocatingPushAdversary),
            ("wrong_answer", WrongAnswerAdversary),
            ("push_flood", PushFloodAdversary),
            ("quorum_flood", QuorumTargetedFloodAdversary),
            ("cornering", CorneringAdversary),
            ("slow_knowledgeable", SlowKnowledgeableDelays),
        ],
    )
    def test_registry_types(self, name, expected_type, small_scenario_module, small_config_module, small_samplers_module):
        adversary = make_adversary(name, small_scenario_module, small_config_module, small_samplers_module)
        assert isinstance(adversary, expected_type)
        assert adversary.byzantine_ids == small_scenario_module.byzantine_ids


class TestStrategyBehaviour:
    """Run each strategy inside a real simulation and check its observable effect."""

    def _run(self, name, scenario, config, samplers, **kwargs):
        adversary = make_adversary(name, scenario, config, samplers)
        result = run_aer(
            scenario, config=config, adversary=adversary, seed=17, samplers=samplers, **kwargs
        )
        return adversary, result

    def test_silent_adversary_sends_nothing(self, small_scenario_module, small_config_module, small_samplers_module):
        adversary, result = self._run("silent", small_scenario_module, small_config_module, small_samplers_module)
        assert adversary.messages_sent == 0
        assert result.agreement_reached

    def test_noise_adversary_sends_but_is_harmless(self, small_scenario_module, small_config_module, small_samplers_module):
        adversary, result = self._run("noise", small_scenario_module, small_config_module, small_samplers_module)
        assert adversary.messages_sent > 0
        assert result.agreement_reached
        assert result.agreement_value() == small_scenario_module.gstring

    def test_equivocation_is_harmless(self, small_scenario_module, small_config_module, small_samplers_module):
        adversary, result = self._run("equivocate", small_scenario_module, small_config_module, small_samplers_module)
        assert adversary.messages_sent > 0
        assert result.agreement_value() == small_scenario_module.gstring

    def test_wrong_answer_never_breaks_safety(self, small_scenario_module, small_config_module, small_samplers_module):
        adversary, result = self._run("wrong_answer", small_scenario_module, small_config_module, small_samplers_module)
        wrong = adversary.wrong_string
        assert all(value != wrong for value in result.decisions.values())

    def test_push_flood_does_not_break_agreement(self, small_scenario_module, small_config_module, small_samplers_module):
        adversary, result = self._run("push_flood", small_scenario_module, small_config_module, small_samplers_module)
        assert adversary.messages_sent > 0
        assert result.agreement_value() == small_scenario_module.gstring

    def test_quorum_flood_reports_forced_strings(self, small_scenario_module, small_config_module, small_samplers_module):
        adversary, result = self._run("quorum_flood", small_scenario_module, small_config_module, small_samplers_module)
        assert result.agreement_value() == small_scenario_module.gstring
        assert adversary.total_forced == sum(len(v) for v in adversary.forced.values())

    def test_cornering_attack_in_async_mode(self, small_scenario_module, small_config_module, small_samplers_module):
        adversary, result = self._run(
            "cornering", small_scenario_module, small_config_module, small_samplers_module, mode="async"
        )
        assert adversary.attacked_targets > 0
        assert result.agreement_value() == small_scenario_module.gstring

    def test_slow_knowledgeable_delays(self, small_scenario_module, small_config_module, small_samplers_module, knowledge):
        adversary = SlowKnowledgeableDelays(small_scenario_module.byzantine_ids, knowledge)
        knowledgeable = small_scenario_module.knowledgeable_ids[0]
        other = next(
            i for i in small_scenario_module.correct_ids
            if i not in small_scenario_module.knowledgeable_ids
        )
        slow = adversary.delay_for(SendRecord(knowledgeable, 0, PollMessage(candidate="0", label=0), 0.0))
        fast = adversary.delay_for(SendRecord(other, 0, PollMessage(candidate="0", label=0), 0.0))
        assert slow == 1.0
        assert fast == MIN_DELAY

    def test_targeted_delay_adversary(self, small_scenario_module, knowledge):
        adversary = TargetedDelayAdversary(small_scenario_module.byzantine_ids, knowledge, victims=[3])
        hit = adversary.delay_for(SendRecord(3, 0, PollMessage(candidate="0", label=0), 0.0))
        miss = adversary.delay_for(SendRecord(1, 0, PollMessage(candidate="0", label=0), 0.0))
        assert hit == 1.0
        assert miss == MIN_DELAY

    def test_cornering_respects_request_budget(self, small_scenario_module, small_config_module, small_samplers_module, knowledge):
        adversary = CorneringAdversary(
            small_scenario_module.byzantine_ids, knowledge, requests_per_node=1, delay_honest=False
        )
        result = run_aer(
            small_scenario_module,
            config=small_config_module,
            adversary=adversary,
            mode="async",
            seed=23,
            samplers=small_samplers_module,
        )
        assert result.agreement_value() == small_scenario_module.gstring
        budgets = adversary._budget_left
        assert all(left >= 0 for left in budgets.values())
