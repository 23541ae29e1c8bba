"""Tests for the AER node state machine and end-to-end AER behaviour."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.adversary.base import Adversary
from repro.adversary.registry import ADVERSARIES
from repro.core.aer import AERNode
from repro.core.config import AERConfig
from repro.core.messages import Fw1Message, PushMessage
from repro.core.pull import PullEngine
from repro.core.scenario import build_aer_nodes, make_scenario
from repro.faults import FaultInjector, FaultSchedule
from repro.net.kernel import EventKernel
from repro.net.sync import SynchronousSimulator
from repro.runner import make_adversary, run_aer
from repro.trace.collector import TraceCollector


class TestNodeBasics:
    def test_believed_starts_as_initial_candidate(self, small_config):
        samplers = small_config.build_samplers()
        node = AERNode(0, small_config, samplers, initial_candidate="abc")
        assert node.believed == "abc"
        assert not node.has_decided

    def test_decide_updates_belief(self, small_config):
        samplers = small_config.build_samplers()
        node = AERNode(0, small_config, samplers, initial_candidate="abc")
        node.decide("xyz")
        assert node.has_decided
        assert node.believed == "xyz"
        assert node.decision == "xyz"

    def test_decide_is_irrevocable(self, small_config):
        samplers = small_config.build_samplers()
        node = AERNode(0, small_config, samplers, initial_candidate="abc")
        node.decide("first")
        node.decide("second")
        assert node.decision == "first"
        assert node.believed == "first"

    def test_candidate_list_starts_with_own_candidate(self, small_config):
        samplers = small_config.build_samplers()
        node = AERNode(0, small_config, samplers, initial_candidate="abc")
        assert node.candidate_list == frozenset({"abc"})

    def test_knows_gstring_none_until_decided(self, small_config):
        samplers = small_config.build_samplers()
        node = AERNode(0, small_config, samplers, initial_candidate="abc")
        assert node.knows_gstring is None
        node.decide("abc")
        assert node.knows_gstring is True


class TestEndToEnd:
    def test_failure_free_run_reaches_agreement(self, small_scenario, small_config, small_sync_result):
        result = small_sync_result
        assert result.agreement_reached
        assert result.agreement_value() == small_scenario.gstring

    def test_constant_round_count_without_adversary(self, small_sync_result):
        # Push (1) + Poll/Pull (1) + Fw1 (1) + Fw2 (1) + Answer (1) ≈ 5 rounds.
        assert small_sync_result.rounds <= 6

    def test_every_decision_is_gstring(self, small_scenario, small_sync_result):
        assert all(v == small_scenario.gstring for v in small_sync_result.decisions.values())

    def test_byzantine_nodes_have_no_decisions(self, small_scenario, small_sync_result):
        assert not set(small_sync_result.decisions) & set(small_scenario.byzantine_ids)

    def test_knowledgeable_nodes_keep_their_candidate(self, small_scenario, small_config):
        result = run_aer(small_scenario, config=small_config, adversary_name="none", seed=3)
        for node_id in small_scenario.knowledgeable_ids:
            assert result.decisions[node_id] == small_scenario.gstring

    def test_sum_of_candidate_lists_linear(self, small_scenario, small_config):
        samplers = small_config.build_samplers()
        nodes = build_aer_nodes(small_scenario, small_config, samplers=samplers)
        SynchronousSimulator(
            nodes=nodes, n=small_scenario.n, seed=1, size_model=small_config.size_model()
        ).run()
        total = sum(node.push_engine.candidate_list_size for node in nodes)
        # Lemma 4: O(n); without an adversary the constant is tiny.
        assert total <= 3 * small_scenario.n

    def test_non_eager_mode_still_agrees(self, small_scenario):
        config = AERConfig.for_system(small_scenario.n, sampler_seed=11).with_(
            eager_pull=False, pull_start_round=2
        )
        result = run_aer(small_scenario, config=config, adversary_name="none", seed=5)
        assert result.agreement_reached
        assert result.agreement_value() == small_scenario.gstring

    def test_async_mode_agrees(self, small_scenario, small_config):
        result = run_aer(
            small_scenario, config=small_config, adversary_name="none", mode="async", seed=2
        )
        assert result.agreement_reached
        assert result.agreement_value() == small_scenario.gstring
        assert result.span is not None

    def test_unknown_junk_messages_ignored(self, small_config):
        samplers = small_config.build_samplers()
        node = AERNode(0, small_config, samplers, initial_candidate="abc")

        class FakeContext:
            node_id = 0
            n = small_config.n
            rng = None

            def send(self, dest, message):
                raise AssertionError("junk must not trigger sends")

            def now(self):
                return 0.0

        node.bind(FakeContext())
        from repro.net.messages import Message

        node.on_message(5, Message())  # must not raise nor send

    def test_push_triggers_candidate_acceptance(self, small_config):
        samplers = small_config.build_samplers()
        scenario = make_scenario(
            small_config.n, config=small_config, t=4, knowledge_fraction=0.8,
            wrong_candidate_mode="random", seed=13,
        )
        nodes = build_aer_nodes(scenario, small_config, samplers=samplers)
        target = nodes[0]
        quorum = samplers.push.quorum("forced-string", target.node_id)

        class FakeContext:
            node_id = target.node_id
            n = small_config.n

            def __init__(self):
                from repro.net.rng import derive_rng

                self.rng = derive_rng(0, "test")

            def send(self, dest, message):
                pass

            def now(self):
                return 0.0

        target.bind(FakeContext())
        for sender in quorum[: len(quorum) // 2 + 1]:
            target.on_message(sender, PushMessage(candidate="forced-string"))
        assert "forced-string" in target.candidate_list


class TestDeterminism:
    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_run_leaves_no_per_run_scratch_behind(self, small_scenario, small_config, mode):
        samplers = small_config.shared_samplers()
        run_aer(small_scenario, config=small_config, samplers=samplers, mode=mode, seed=3)
        assert samplers.pull.shared_scratch == {}

    def test_same_seed_identical_results(self, small_scenario, small_config):
        a = run_aer(small_scenario, config=small_config, adversary_name="none", seed=9)
        b = run_aer(small_scenario, config=small_config, adversary_name="none", seed=9)
        assert a.decisions == b.decisions
        assert a.metrics.total_bits == b.metrics.total_bits
        assert a.rounds == b.rounds

    def test_different_seed_same_agreement(self, small_scenario, small_config):
        a = run_aer(small_scenario, config=small_config, adversary_name="none", seed=1)
        b = run_aer(small_scenario, config=small_config, adversary_name="none", seed=2)
        assert a.agreement_value() == b.agreement_value() == small_scenario.gstring


# ----------------------------------------------------------------------
# grouped Fw1 delivery: checked against the per-destination loop
# ----------------------------------------------------------------------
class PerDestinationNode(AERNode):
    """An ``AERNode`` that offers the kernel no grouped handler.

    Nothing else differs, so a run on this class is the per-destination
    reference for the very same run on ``AERNode``.
    """

    @classmethod
    def grouped_handlers(cls, nodes, deliver_one):
        return {}


class SpyNode(AERNode):
    """Overrides ``on_message`` — and is therefore promised every message."""

    fw1_seen = 0

    def on_message(self, sender, message):
        if type(message) is Fw1Message:
            SpyNode.fw1_seen += 1
        super().on_message(sender, message)


def _entries(records):
    """Grouped ``(sender, dests, message, bits)`` records, one entry per message."""
    return [
        (sender, dest, message.kind, bits)
        for sender, dests, message, bits in records
        for dest in dests
    ]


def _aer_sync(
    n, seed, adversary="none", *, node_cls=AERNode, rushing=False, wrong="random",
    log=False, loop_plans=False, trace=None, faults=None,
):
    """One sync AER run on ``node_cls`` nodes, built the way ``run_aer`` builds it.

    ``log`` records every message put on the wire as ``sim.dispatch_log``:
    ``(sender, dest, kind, bits)`` in dispatch order, read from each
    delivered batch, then from the last outbox, which is never delivered.
    ``loop_plans`` dispatches every send plan multicast by multicast (the
    kernel's default loop) instead of as a prepared plan.
    """
    config = AERConfig.for_system(n)
    scenario = make_scenario(
        n, config=config, t=n // 4, knowledge_fraction=0.56, wrong_candidate_mode=wrong, seed=seed
    )
    samplers = config.shared_samplers()
    if not isinstance(adversary, Adversary):
        adversary = make_adversary(adversary, scenario, config, samplers)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.core.scenario.AERNode", node_cls)
        nodes = build_aer_nodes(scenario, config, samplers=samplers, trace=trace)
    assert all(type(node) is node_cls for node in nodes)
    sim = SynchronousSimulator(
        nodes, n=n, adversary=adversary, seed=seed, rushing=rushing,
        size_model=config.size_model(), trace=trace, faults=faults,
    )
    if loop_plans:
        sim.dispatch_plan = lambda sender, plan: EventKernel.dispatch_plan(sim, sender, plan)
    if not log:
        return sim, sim.run()
    sim.dispatch_log = []
    deliver_batch = sim.deliver_batch

    def recording_deliver_batch(batch):
        sim.dispatch_log.extend(_entries(batch))
        deliver_batch(batch)

    sim.deliver_batch = recording_deliver_batch
    result = sim.run()
    sim.dispatch_log.extend(_entries(sim._outbox))
    return sim, result


def _assert_same_result(grouped, per_destination):
    for field in fields(grouped):
        assert getattr(grouped, field.name) == getattr(per_destination, field.name), field.name


class TestGroupedFw1Delivery:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("n", [24, 40, 64])
    @pytest.mark.parametrize("wrong", ["random", "common_wrong"])
    @pytest.mark.parametrize("rushing", [False, True])
    @pytest.mark.parametrize("adversary", sorted(ADVERSARIES.names()))
    def test_grouped_run_equals_per_destination_run(self, adversary, rushing, wrong, n, seed):
        grouped_sim, grouped = _aer_sync(n, seed, adversary, rushing=rushing, wrong=wrong)
        reference_sim, reference = _aer_sync(
            n, seed, adversary, rushing=rushing, wrong=wrong, node_cls=PerDestinationNode
        )
        assert list(grouped_sim._grouped) == [Fw1Message] and reference_sim._grouped == {}
        assert grouped.metrics_all.total_messages > 0
        _assert_same_result(grouped, reference)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("rushing", [False, True])
    @pytest.mark.parametrize("adversary", sorted(ADVERSARIES.names()))
    def test_message_logs_are_identical(self, adversary, rushing, seed):
        plain_sim, plain = _aer_sync(24, seed, adversary, rushing=rushing, loop_plans=True)
        grouped_sim, grouped = _aer_sync(24, seed, adversary, rushing=rushing, log=True)
        reference_sim, reference = _aer_sync(
            24, seed, adversary, rushing=rushing, log=True, loop_plans=True,
            node_cls=PerDestinationNode,
        )
        assert grouped_sim.dispatch_log == reference_sim.dispatch_log
        assert len(grouped_sim.dispatch_log) == grouped.metrics_all.total_messages
        _assert_same_result(grouped, reference)
        # a send plan taken apart multicast by multicast: the same run
        _assert_same_result(plain, grouped)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("adversary", sorted(ADVERSARIES.names()))
    def test_trace_summaries_are_identical(self, adversary, seed):
        _, plain = _aer_sync(24, seed, adversary)
        grouped_trace, reference_trace = TraceCollector("summary"), TraceCollector("summary")
        _, grouped = _aer_sync(24, seed, adversary, trace=grouped_trace)
        _, reference = _aer_sync(
            24, seed, adversary, trace=reference_trace, node_cls=PerDestinationNode
        )
        assert grouped_trace.finalize() == reference_trace.finalize()
        _assert_same_result(grouped, reference)
        _assert_same_result(plain, grouped)

    def test_quorums_share_their_fw1_vote_sets(self):
        """The grouped fast path is really on: one vote set per key, not one per member."""
        sim, _ = _aer_sync(64, 1, "none")
        states = [
            state for node in sim.nodes.values() for state in node.pull_engine._fw1_state.values()
        ]
        vote_sets = {id(state[0]) for state in states}
        assert len(states) > 1000
        assert len(vote_sets) * 4 < len(states)

    def test_on_message_override_is_delivered_per_destination(self):
        SpyNode.fw1_seen = 0
        sim, result = _aer_sync(24, 1, "wrong_answer", node_cls=SpyNode, log=True)
        assert sim._grouped == {}
        correct = set(result.correct_ids)
        fw1_to_correct = sum(
            1 for _s, dest, kind, _b in sim.dispatch_log if kind == "fw1" and dest in correct
        )
        assert SpyNode.fw1_seen == fw1_to_correct > 0
        _assert_same_result(result, _aer_sync(24, 1, "wrong_answer")[1])

    def test_fault_injector_keeps_per_destination_delivery(self):
        faults = FaultInjector(FaultSchedule(loss_rate=0.1), n=24, seed=1)
        sim, _ = _aer_sync(24, 1, faults=faults)
        assert sim._grouped == {}

    @pytest.mark.parametrize("node_cls", [AERNode, PerDestinationNode])
    def test_byzantine_quorum_member_is_reached_in_its_turn(self, node_cls):
        """First record of every Fw1 key: who was handed it, in which order.

        A first arrival goes through ``PullEngine.on_fw1`` on both paths, so
        spies on it and on ``on_deliver`` see the fan-out of that record —
        which must be the quorum tuple itself, corrupted members included.
        """
        events = []

        class Recorder(Adversary):
            def on_deliver(self, byz_id, sender, message):
                if type(message) is Fw1Message:
                    events.append((message, sender, byz_id))

        real_on_fw1 = PullEngine.on_fw1

        def on_fw1(self, sender, message):
            events.append((message, sender, self._node_id))
            real_on_fw1(self, sender, message)

        config = AERConfig.for_system(40)
        scenario = make_scenario(
            40, config=config, t=10, knowledge_fraction=0.56, wrong_candidate_mode="random", seed=2
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(PullEngine, "on_fw1", on_fw1)  # nodes bind it at construction
            sim, result = _aer_sync(40, 2, Recorder(scenario.byzantine_ids), node_cls=node_cls)
        assert bool(sim._grouped) == (node_cls is AERNode)

        first_sender, fan_out = {}, {}
        for message, sender, dest in events:
            if first_sender.setdefault(message, sender) == sender:
                fan_out.setdefault(message, []).append(dest)
        table = config.shared_samplers().pull
        byzantine = set(result.byzantine_ids)
        inside = 0
        for message, dests in fan_out.items():
            quorum = table.quorum(message.candidate, message.target)
            assert tuple(dests) == quorum
            inside += any(d in byzantine for d in quorum[1:-1])
        assert inside > 0

