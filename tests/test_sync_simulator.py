"""Tests for the synchronous scheduler and the node/adversary wiring."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import pytest

from repro.faults import FaultInjector, FaultSchedule
from repro.net.kernel import EventKernel, SendRecord
from repro.net.messages import Message, SizeModel
from repro.net.node import Node
from repro.net.sync import SynchronousSimulator


@dataclass(frozen=True)
class Ping(Message):
    payload: int = 0
    kind: str = "ping"


class EchoNode(Node):
    """Sends one ping to its successor at start and records what it receives."""

    def __init__(self, node_id: int, n: int) -> None:
        super().__init__(node_id)
        self.n = n
        self.received: List[tuple] = []
        self.rounds_seen: List[int] = []

    def on_start(self) -> None:
        self.send((self.node_id + 1) % self.n, Ping(payload=self.node_id))

    def on_round(self, round_no: int) -> None:
        self.rounds_seen.append(round_no)

    def on_message(self, sender: int, message: Message) -> None:
        self.received.append((sender, message, self.context.now()))
        self.decide("done")


class DecideImmediatelyNode(Node):
    def on_start(self) -> None:
        self.decide("now")


class SilentTestAdversary:
    """Minimal AdversaryProtocol implementation used to probe the scheduler."""

    def __init__(self, byz_ids):
        self._byz = frozenset(byz_ids)
        self.observed_rounds: List[Optional[List[SendRecord]]] = []
        self.delivered: List[tuple] = []
        self.context = None

    @property
    def byzantine_ids(self):
        return self._byz

    def bind(self, context):
        self.context = context

    def on_start(self):
        pass

    def on_deliver(self, byz_id, sender, message):
        self.delivered.append((byz_id, sender, message))

    def on_round(self, round_no, observed):
        self.observed_rounds.append(observed)

    def observe_send(self, record):
        pass

    def delay_for(self, record):
        return None


def ring(n: int) -> List[EchoNode]:
    return [EchoNode(i, n) for i in range(n)]


class TestBasicExecution:
    def test_messages_delivered_next_round(self):
        nodes = ring(4)
        sim = SynchronousSimulator(nodes=nodes, n=4, seed=0)
        result = sim.run()
        # sends happen at round 0 and are delivered during round 1
        assert all(time == 1.0 for node in nodes for (_, _, time) in node.received)
        assert result.rounds == 1

    def test_every_node_receives_exactly_one_ping(self):
        nodes = ring(5)
        SynchronousSimulator(nodes=nodes, n=5, seed=0).run()
        assert all(len(node.received) == 1 for node in nodes)

    def test_sender_identity_is_authentic(self):
        nodes = ring(5)
        SynchronousSimulator(nodes=nodes, n=5, seed=0).run()
        for node in nodes:
            sender, message, _ = node.received[0]
            assert sender == (node.node_id - 1) % 5
            assert message.payload == sender

    def test_result_reports_all_decisions(self):
        nodes = ring(3)
        result = SynchronousSimulator(nodes=nodes, n=3, seed=0).run()
        assert result.all_correct_decided
        assert result.agreement_value() == "done"

    def test_immediate_decision_gives_zero_rounds(self):
        nodes = [DecideImmediatelyNode(i) for i in range(3)]
        result = SynchronousSimulator(nodes=nodes, n=3, seed=0).run()
        assert result.rounds == 0

    def test_metrics_count_messages(self):
        nodes = ring(4)
        result = SynchronousSimulator(nodes=nodes, n=4, seed=0).run()
        assert result.metrics.total_messages == 4

    def test_max_rounds_cap(self):
        class Chatter(Node):
            def on_start(self):
                self.send(self.node_id, Ping())

            def on_message(self, sender, message):
                self.send(self.node_id, Ping())  # never decides, always re-sends

        sim = SynchronousSimulator(nodes=[Chatter(0)], n=1, seed=0, max_rounds=5)
        result = sim.run()
        assert result.rounds == 5
        assert not result.all_correct_decided

    def test_quiescence_stops_run(self):
        class OneShot(Node):
            def on_start(self):
                self.send(self.node_id, Ping())

        sim = SynchronousSimulator(nodes=[OneShot(0)], n=1, seed=0, max_rounds=50)
        result = sim.run()
        assert result.rounds <= 2

    def test_min_rounds_defers_quiescence(self):
        class LateSender(Node):
            def __init__(self, node_id):
                super().__init__(node_id)
                self.sent_late = False

            def on_round(self, round_no):
                if round_no == 4:
                    self.sent_late = True
                    self.decide("late")

        node = LateSender(0)
        sim = SynchronousSimulator(nodes=[node], n=1, seed=0, min_rounds=6, max_rounds=10)
        result = sim.run()
        assert node.sent_late
        assert result.all_correct_decided


class TestValidation:
    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(ValueError):
            SynchronousSimulator(nodes=[EchoNode(0, 2), EchoNode(0, 2)], n=2, seed=0)

    def test_node_cannot_also_be_byzantine(self):
        adversary = SilentTestAdversary({1})
        with pytest.raises(ValueError):
            SynchronousSimulator(nodes=ring(2), n=2, adversary=adversary, seed=0)

    def test_send_outside_range_rejected(self):
        class BadSender(Node):
            def on_start(self):
                self.send(99, Ping())

        with pytest.raises(ValueError):
            SynchronousSimulator(nodes=[BadSender(0)], n=1, seed=0).run()

    def test_unbound_node_send_raises(self):
        node = EchoNode(0, 2)
        with pytest.raises(RuntimeError):
            node.send(1, Ping())

    def test_base_simulator_hooks_are_abstract(self):
        sim = EventKernel(nodes=[], n=1, seed=0)
        with pytest.raises(NotImplementedError):
            sim.now()
        with pytest.raises(NotImplementedError):
            sim.run()

class TestAdversaryInteraction:
    def test_messages_to_byzantine_reach_adversary(self):
        adversary = SilentTestAdversary({1})
        nodes = [EchoNode(i, 4) for i in (0, 2, 3)]
        SynchronousSimulator(nodes=nodes, n=4, adversary=adversary, seed=0).run()
        assert any(byz_id == 1 for byz_id, _, _ in adversary.delivered)

    def test_rushing_adversary_sees_current_round_sends(self):
        adversary = SilentTestAdversary({3})
        nodes = [EchoNode(i, 4) for i in (0, 1, 2)]
        SynchronousSimulator(nodes=nodes, n=4, adversary=adversary, seed=0, rushing=True).run()
        first_round_view = adversary.observed_rounds[0]
        assert first_round_view is not None
        assert len(first_round_view) == 3  # it saw all three pings before acting

    def test_non_rushing_adversary_sees_nothing_current(self):
        adversary = SilentTestAdversary({3})
        nodes = [EchoNode(i, 4) for i in (0, 1, 2)]
        SynchronousSimulator(nodes=nodes, n=4, adversary=adversary, seed=0, rushing=False).run()
        assert all(view is None for view in adversary.observed_rounds)

    def test_adversary_cannot_forge_sender(self):
        class ForgingAdversary(SilentTestAdversary):
            def on_round(self, round_no, observed):
                super().on_round(round_no, observed)
                if round_no == 0:
                    # identity 0 is an honest node; sending as it must be rejected
                    self.context.send_as(0, 1, Ping())

        adversary = ForgingAdversary({3})
        nodes = [EchoNode(i, 4) for i in (0, 1, 2)]
        sim = SynchronousSimulator(nodes=nodes, n=4, adversary=adversary, seed=0)
        with pytest.raises(PermissionError):
            sim.run()

    def test_adversary_can_send_as_its_own_nodes(self):
        class InjectingAdversary(SilentTestAdversary):
            def on_round(self, round_no, observed):
                super().on_round(round_no, observed)
                if round_no == 0:
                    self.context.send_as(3, 0, Ping(payload=99))

        adversary = InjectingAdversary({3})
        nodes = [EchoNode(i, 4) for i in (0, 1, 2)]
        SynchronousSimulator(nodes=nodes, n=4, adversary=adversary, seed=0).run()
        payloads = [msg.payload for (_, msg, _) in nodes[0].received]
        assert 99 in payloads

    def test_messages_to_nonexistent_nodes_are_dropped(self):
        # With n=4 but only nodes {0,1,2} correct and no adversary, messages to 3 vanish.
        nodes = [EchoNode(i, 4) for i in (0, 1, 2)]
        result = SynchronousSimulator(nodes=nodes, n=4, seed=0).run()
        assert 3 not in result.decisions


class TestDeterminism:
    def test_same_seed_same_metrics(self):
        r1 = SynchronousSimulator(nodes=ring(6), n=6, seed=5).run()
        r2 = SynchronousSimulator(nodes=ring(6), n=6, seed=5).run()
        assert r1.metrics.total_bits == r2.metrics.total_bits
        assert r1.rounds == r2.rounds

    def test_node_rngs_are_private_and_distinct(self):
        class RngProbe(Node):
            def on_start(self):
                self.value = self.context.rng.random()
                self.decide(self.value)

        nodes = [RngProbe(i) for i in range(4)]
        SynchronousSimulator(nodes=nodes, n=4, seed=1).run()
        values = {node.value for node in nodes}
        assert len(values) == 4


# ----------------------------------------------------------------------
# grouped delivery and send plans
# ----------------------------------------------------------------------
class FanoutNode(Node):
    """Node 0 multicasts one ping to everybody (out of range ids excluded)."""

    def __init__(self, node_id: int, n: int) -> None:
        super().__init__(node_id)
        self.n = n
        self.received: List[tuple] = []

    def on_start(self) -> None:
        if self.node_id == 0:
            self.send_many(tuple(range(self.n)), Ping(payload=7))

    def on_message(self, sender: int, message: Message) -> None:
        self.received.append((sender, message))


class GroupedFanoutNode(FanoutNode):
    """Offers ``Ping`` records whole; the handler does what the loop does."""

    records: List[tuple] = []

    @classmethod
    def grouped_handlers(cls, nodes, deliver_one):
        def on_ping_record(sender, dests, message):
            cls.records.append((sender, dests, message))
            for dest in dests:
                deliver_one(dest, sender, message)

        return {Ping: on_ping_record}


class OtherGroupedFanoutNode(GroupedFanoutNode):
    pass


def _fanout(node_cls, n=6, byz=(2,), classes=None, **kwargs):
    adversary = SilentTestAdversary(byz)
    ids = [i for i in range(n) if i not in byz]
    nodes = [(classes or {}).get(i, node_cls)(i, n) for i in ids]
    sim = SynchronousSimulator(nodes=nodes, n=n, adversary=adversary, seed=0, **kwargs)
    return sim, nodes, adversary, sim.run()


class TestGroupedDelivery:
    def test_offered_record_is_handed_over_whole_and_counted_the_same(self):
        GroupedFanoutNode.records = []
        _, reference_nodes, reference_adv, reference = _fanout(FanoutNode)
        sim, nodes, adversary, grouped = _fanout(GroupedFanoutNode)
        assert GroupedFanoutNode.records == [(0, tuple(range(6)), Ping(payload=7))]
        assert [node.received for node in nodes] == [node.received for node in reference_nodes]
        assert adversary.delivered == reference_adv.delivered == [(2, 0, Ping(payload=7))]
        assert grouped.metrics_all == reference.metrics_all and grouped.metrics == reference.metrics
        assert sim.metrics.traffic_of(2).received_messages == 1

    def test_mixed_population_is_never_asked(self):
        GroupedFanoutNode.records = []
        sim, nodes, _, _ = _fanout(GroupedFanoutNode, classes={3: OtherGroupedFanoutNode})
        assert sim._grouped == {} and GroupedFanoutNode.records == []
        assert all(node.received == [(0, Ping(payload=7))] for node in nodes)

    def test_fault_injector_is_never_asked(self):
        GroupedFanoutNode.records = []
        faults = FaultInjector(FaultSchedule(loss_rate=0.5), n=6, seed=3)
        sim, nodes, _, _ = _fanout(GroupedFanoutNode, faults=faults)
        assert sim._grouped == {} and GroupedFanoutNode.records == []
        assert 0 < sum(len(node.received) for node in nodes) < 5  # per-edge drops

    def test_send_as_stays_per_destination(self):
        """An offered type sent by ``send_as``: unvalidated ids never reach the handler."""

        class Injecting(SilentTestAdversary):
            def on_round(self, round_no, observed):
                super().on_round(round_no, observed)
                if round_no == 0:
                    for dest in (2, 1, 1000):  # a corrupted id, a node, nobody
                        self.context.send_as(2, dest, Ping(payload=9))

        GroupedFanoutNode.records = []
        adversary = Injecting({2})
        nodes = [GroupedFanoutNode(i, 6) for i in (1, 3, 4, 5)]  # nobody multicasts
        sim = SynchronousSimulator(nodes=nodes, n=6, adversary=adversary, seed=0)
        sim.run()
        assert Ping in sim._grouped and GroupedFanoutNode.records == []
        assert 1000 >= sim._id_limit
        assert adversary.delivered == [(2, 2, Ping(payload=9))]
        assert nodes[0].received == [(2, Ping(payload=9))]
        assert sim.metrics.traffic_of(1000).received_messages == 1  # counted, delivered to nobody


class PlanNode(Node):
    """Every node sends the same shared plan at start."""

    def __init__(self, node_id: int, plan) -> None:
        super().__init__(node_id)
        self.plan = plan
        self.received: List[tuple] = []

    def on_start(self) -> None:
        self.send_plan(self.plan)

    def on_message(self, sender: int, message: Message) -> None:
        self.received.append((sender, message))


class TestSendPlan:
    PLAN = (((1, 2, 3), Ping(payload=1)), ((), Ping(payload=2)), ((0, 3), Ping(payload=3)))

    def _run(self, plan, **kwargs):
        nodes = [PlanNode(i, plan) for i in range(4)]
        sim = SynchronousSimulator(nodes=nodes, n=4, seed=0, **kwargs)
        return sim, nodes, sim.run()

    def test_plan_equals_the_loop_over_send_many(self):
        fast_sim, fast_nodes, fast = self._run(self.PLAN)
        listed_sim, listed_nodes, listed = self._run(list(self.PLAN))  # not a tuple: the loop
        assert len(fast_sim._prepared_plans) == 1 and not listed_sim._prepared_plans
        assert listed.metrics_all.total_messages == fast.metrics_all.total_messages == 4 * 5
        assert [node.received for node in listed_nodes] == [node.received for node in fast_nodes]
        assert listed.metrics_all == fast.metrics_all and listed.metrics == fast.metrics

    def test_rushing_adversary_sees_the_plan_message_by_message(self):
        adversary = SilentTestAdversary({3})
        nodes = [PlanNode(i, self.PLAN) for i in range(3)]
        SynchronousSimulator(nodes=nodes, n=4, adversary=adversary, seed=0, rushing=True).run()
        assert [(r.sender, r.dest, r.message.payload) for r in adversary.observed_rounds[0]] == [
            (sender, dest, message.payload)
            for sender in range(3) for dests, message in self.PLAN for dest in dests
        ]

    @pytest.mark.parametrize("container", [tuple, list])  # prepared plan, the loop
    def test_plan_destinations_are_range_checked(self, container):
        with pytest.raises(ValueError, match="outside"):
            self._run(container((((1, 4), Ping()),)))
