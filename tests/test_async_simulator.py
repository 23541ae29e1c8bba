"""Tests for the asynchronous event-queue scheduler."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List

import pytest

from repro.adversary.base import Adversary
from repro.adversary.registry import ADVERSARIES
from repro.core.config import AERConfig
from repro.core.scenario import build_aer_nodes, make_scenario
from repro.faults import FaultInjector, FaultSchedule
from repro.net.asynchronous import (
    MIN_DELAY,
    AsynchronousSimulator,
    ConstantDelayPolicy,
    RandomDelayPolicy,
    make_delay_policy,
)
from repro.net.messages import Message
from repro.net.node import Node
from repro.protocols.base import RunResult
from repro.runner import make_adversary
from repro.trace.collector import TraceCollector


@dataclass(frozen=True)
class Tick(Message):
    hops: int = 0
    kind: str = "tick"


class ChainNode(Node):
    """Forwards a token along the ring a fixed number of hops, then decides."""

    def __init__(self, node_id: int, n: int, max_hops: int) -> None:
        super().__init__(node_id)
        self.n = n
        self.max_hops = max_hops
        self.deliveries: List[float] = []

    def on_start(self) -> None:
        if self.node_id == 0:
            self.send(1 % self.n, Tick(hops=1))

    def on_message(self, sender: int, message: Message) -> None:
        self.deliveries.append(self.context.now())
        if isinstance(message, Tick):
            if message.hops >= self.max_hops:
                self.decide(message.hops)
            else:
                self.send((self.node_id + 1) % self.n, Tick(hops=message.hops + 1))
            if not self.has_decided and message.hops >= self.max_hops:
                self.decide(message.hops)


class AllDecideNode(Node):
    def on_start(self) -> None:
        for peer in range(self.context.n):
            if peer != self.node_id:
                self.send(peer, Tick())

    def on_message(self, sender: int, message: Message) -> None:
        self.decide("ok")


class DelayRecordingAdversary:
    """Observes all sends and forces a fixed delay on them."""

    def __init__(self, byz_ids, forced_delay):
        self._byz = frozenset(byz_ids)
        self.forced_delay = forced_delay
        self.observed: List = []

    @property
    def byzantine_ids(self):
        return self._byz

    def bind(self, context):
        self.context = context

    def on_start(self):
        pass

    def on_deliver(self, byz_id, sender, message):
        pass

    def on_round(self, round_no, observed):
        pass

    def observe_send(self, record):
        self.observed.append(record)

    def delay_for(self, record):
        return self.forced_delay


class TestDelayPolicies:
    def test_constant_policy_returns_value(self):
        policy = ConstantDelayPolicy(0.25)
        assert policy.delay(None, None) == 0.25

    def test_constant_policy_validates_range(self):
        with pytest.raises(ValueError):
            ConstantDelayPolicy(2.0)
        with pytest.raises(ValueError):
            ConstantDelayPolicy(0.0)

    def test_random_policy_within_bounds(self):
        import random

        policy = RandomDelayPolicy(0.2, 0.7)
        rng = random.Random(0)
        for _ in range(100):
            assert 0.2 <= policy.delay(None, rng) <= 0.7

    def test_random_policy_validates_bounds(self):
        with pytest.raises(ValueError):
            RandomDelayPolicy(0.5, 0.1)

    def test_base_policy_is_abstract(self):
        from repro.net.asynchronous import DelayPolicy

        with pytest.raises(NotImplementedError):
            DelayPolicy().delay(None, None)


class TestExecution:
    def test_time_advances_monotonically(self):
        nodes = [ChainNode(i, 4, max_hops=6) for i in range(4)]
        sim = AsynchronousSimulator(nodes=nodes, n=4, seed=1)
        sim.run()
        for node in nodes:
            assert node.deliveries == sorted(node.deliveries)

    def test_span_reflects_chain_length_with_constant_delays(self):
        nodes = [ChainNode(i, 3, max_hops=5) for i in range(3)]
        sim = AsynchronousSimulator(
            nodes=nodes, n=3, seed=1, delay_policy=ConstantDelayPolicy(1.0)
        )
        result = sim.run()
        # 5 hops at exactly one time unit each
        assert result.span == pytest.approx(5.0)

    def test_all_nodes_decide_simple_broadcast(self):
        nodes = [AllDecideNode(i) for i in range(5)]
        result = AsynchronousSimulator(nodes=nodes, n=5, seed=2).run()
        assert result.all_correct_decided
        assert result.rounds is None
        assert result.span is not None

    def test_delays_never_exceed_reliability_bound(self):
        nodes = [AllDecideNode(i) for i in range(6)]
        result = AsynchronousSimulator(nodes=nodes, n=6, seed=3).run()
        # every message has delay <= 1, and only one "wave" of messages exists
        assert result.span <= 1.0 + 1e-9

    def test_max_events_cap_stops_runaway(self):
        class PingPong(Node):
            def on_start(self):
                self.send(1 - self.node_id, Tick())

            def on_message(self, sender, message):
                self.send(sender, Tick())  # never decides

        sim = AsynchronousSimulator(
            nodes=[PingPong(0), PingPong(1)], n=2, seed=0, max_events=50
        )
        result = sim.run()
        assert not result.all_correct_decided
        assert result.metrics.total_messages >= 50

    def test_max_time_cap(self):
        class Slowpoke(Node):
            def on_start(self):
                self.send(self.node_id, Tick())

            def on_message(self, sender, message):
                self.send(self.node_id, Tick())

        sim = AsynchronousSimulator(
            nodes=[Slowpoke(0)], n=1, seed=0, max_time=5.0,
            delay_policy=ConstantDelayPolicy(1.0),
        )
        result = sim.run()
        assert not result.all_correct_decided

    def test_determinism(self):
        r1 = AsynchronousSimulator(nodes=[AllDecideNode(i) for i in range(5)], n=5, seed=9).run()
        r2 = AsynchronousSimulator(nodes=[AllDecideNode(i) for i in range(5)], n=5, seed=9).run()
        assert r1.span == r2.span
        assert r1.metrics.total_bits == r2.metrics.total_bits


class TestAdversaryScheduling:
    def test_adversary_observes_every_send(self):
        adversary = DelayRecordingAdversary({5}, forced_delay=None)
        nodes = [AllDecideNode(i) for i in range(5)]
        result = AsynchronousSimulator(nodes=nodes, n=6, adversary=adversary, seed=1).run()
        assert len(adversary.observed) == result.metrics.total_messages

    def test_adversary_controls_delays(self):
        adversary = DelayRecordingAdversary({5}, forced_delay=1.0)
        nodes = [AllDecideNode(i) for i in range(5)]
        result = AsynchronousSimulator(nodes=nodes, n=6, adversary=adversary, seed=1).run()
        assert result.span == pytest.approx(1.0)

    def test_adversary_delay_clamped_to_reliability_bound(self):
        adversary = DelayRecordingAdversary({5}, forced_delay=100.0)
        nodes = [AllDecideNode(i) for i in range(5)]
        result = AsynchronousSimulator(nodes=nodes, n=6, adversary=adversary, seed=1).run()
        assert result.span <= 1.0 + 1e-9

    def test_adversary_delay_clamped_to_min_delay(self):
        adversary = DelayRecordingAdversary({5}, forced_delay=0.0)
        nodes = [AllDecideNode(i) for i in range(5)]
        result = AsynchronousSimulator(nodes=nodes, n=6, adversary=adversary, seed=1).run()
        assert result.span >= MIN_DELAY


    @pytest.mark.parametrize("forced, arrival", [(0.0, MIN_DELAY), (2.0, 1.0), (1, 1.0)])
    def test_out_of_range_and_int_delays_become_clamped_float_arrivals(self, forced, arrival):
        adversary = DelayRecordingAdversary({5}, forced_delay=forced)
        nodes = [AllDecideNode(i) for i in range(5)]
        sim = AsynchronousSimulator(nodes=nodes, n=6, adversary=adversary, seed=1)
        for node in nodes:
            node.on_start()  # every send happens at time 0.0
        events = [event for bucket in sim._buckets.values() for event in bucket]
        assert len(events) == len(adversary.observed) == 25
        assert all(type(event[0]) is float and event[0] == arrival for event in events)


# ----------------------------------------------------------------------
# grouped dispatch under an adversary
# ----------------------------------------------------------------------
def _send_blind_adversaries() -> List[str]:
    """Registered adversaries that override neither ``observe_send`` nor ``delay_for``."""
    config = AERConfig.for_system(24)
    scenario = make_scenario(
        24, config=config, t=6, knowledge_fraction=0.56, wrong_candidate_mode="random", seed=0
    )
    samplers = config.shared_samplers()
    adversaries = {
        name: make_adversary(name, scenario, config, samplers) for name in ADVERSARIES.names()
    }
    return sorted(
        name for name, adv in adversaries.items() if adv is not None and not adv.watches_sends
    )


SEND_BLIND = _send_blind_adversaries()


def _aer_async(
    n, seed, adversary_name, policy, *, watching=False, log=False, faults=None, trace=None,
    simulator=AsynchronousSimulator,
):
    """One async AER run; ``watching`` swaps in a subclass with an empty ``observe_send``.

    The subclass observes nothing and changes nothing, but it overrides a
    hook, so the scheduler must show it every message and ask it for every
    delay: the per-destination path, for the very same run.  ``log``
    records every message put on the wire as ``sim.dispatch_log``:
    ``(sender, dest, kind, bits)`` in dispatch order, read where each record
    is scheduled.  ``trace`` is handed to the simulator; with an adversary it
    sends every multicast down the per-destination path.  ``simulator`` is
    the simulator class.
    """
    config = AERConfig.for_system(n)
    scenario = make_scenario(
        n, config=config, t=n // 4, knowledge_fraction=0.56, wrong_candidate_mode="random",
        seed=seed,
    )
    samplers = config.shared_samplers()
    adversary = make_adversary(adversary_name, scenario, config, samplers)
    if watching:
        cls = type(adversary)
        watcher = type("Watching" + cls.__name__, (cls,), {"observe_send": lambda self, record: None})
        adversary = watcher(scenario.byzantine_ids, adversary.knowledge)
    sim = simulator(
        build_aer_nodes(scenario, config, samplers=samplers),
        n=n,
        adversary=adversary,
        seed=seed,
        delay_policy=make_delay_policy(policy),
        size_model=config.size_model(),
        faults=faults,
        trace=trace,
    )
    if log:
        sim.dispatch_log = []
        schedule = sim._schedule

        def recording_schedule(sender, dests, message, bits):
            sim.dispatch_log.extend((sender, dest, message.kind, bits) for dest in dests)
            schedule(sender, dests, message, bits)

        sim._schedule = recording_schedule
    return sim, sim.run()


def _assert_same_result(grouped, per_message):
    for field in fields(grouped):
        assert getattr(grouped, field.name) == getattr(per_message, field.name), field.name


class TestGroupedDispatchUnderAdversary:
    def test_the_send_blind_set_is_the_expected_one(self):
        assert SEND_BLIND == [
            "equivocate", "noise", "push_flood", "quorum_flood", "silent", "wrong_answer",
        ]

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("n", [24, 40])
    @pytest.mark.parametrize("policy", ["random", "constant", "pareto"])
    @pytest.mark.parametrize("adversary", SEND_BLIND)
    def test_grouped_run_equals_per_message_run(self, adversary, policy, n, seed):
        grouped_sim, grouped = _aer_async(n, seed, adversary, policy)
        watched_sim, per_message = _aer_async(n, seed, adversary, policy, watching=True)
        assert grouped_sim._watcher is None and watched_sim._watcher is not None
        assert grouped.metrics_all.total_messages > 0
        _assert_same_result(grouped, per_message)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("policy", ["random", "constant", "pareto"])
    @pytest.mark.parametrize("adversary", SEND_BLIND)
    def test_message_logs_are_identical(self, adversary, policy, seed):
        grouped_sim, grouped = _aer_async(24, seed, adversary, policy, log=True)
        watched_sim, per_message = _aer_async(24, seed, adversary, policy, watching=True, log=True)
        assert grouped_sim.dispatch_log == watched_sim.dispatch_log
        assert len(grouped_sim.dispatch_log) == grouped.metrics_all.total_messages
        _assert_same_result(grouped, per_message)

    @pytest.mark.parametrize("adversary", ["push_flood", "quorum_flood"])
    def test_a_traced_run_dispatches_like_the_grouped_run(self, adversary):
        # the one configuration left that takes a multicast apart
        grouped_sim, grouped = _aer_async(24, 1, adversary, "random", log=True)
        trace = TraceCollector("summary")
        traced_sim, traced = _aer_async(24, 1, adversary, "random", log=True, trace=trace)
        assert traced_sim._trace_each_message and not grouped_sim._trace_each_message
        assert traced_sim.dispatch_log == grouped_sim.dispatch_log
        # one message_dispatched event per message, not per multicast
        assert trace.summary().events["message_dispatched"] == grouped.metrics_all.total_messages
        _assert_same_result(grouped, traced)

    def test_a_stand_in_without_the_attribute_is_treated_as_watching(self):
        adversary = DelayRecordingAdversary({5}, forced_delay=None)
        sim = AsynchronousSimulator(
            nodes=[AllDecideNode(i) for i in range(5)], n=6, adversary=adversary, seed=1
        )
        assert not hasattr(adversary, "watches_sends")
        assert sim._watcher is adversary
        assert sim._uniform_fast is None and sim._constant_fast is None

    def test_send_blind_adversary_arms_the_fast_paths(self):
        nodes = [AllDecideNode(i) for i in range(5)]
        sim = AsynchronousSimulator(nodes=nodes, n=6, adversary=Adversary({5}), seed=1)
        assert sim._watcher is None and sim._uniform_fast == (0.1, 0.9)
        nodes = [AllDecideNode(i) for i in range(5)]
        sim = AsynchronousSimulator(
            nodes=nodes, n=6, adversary=Adversary({5}), seed=1,
            delay_policy=ConstantDelayPolicy(0.5),
        )
        assert sim._constant_fast == 0.5

    def test_fault_delay_classes_still_schedule_per_message(self):
        schedule = FaultSchedule(slow_fraction=0.5, slow_factor=3.0, byzantine_factor=0.25)

        def run(watching):
            return _aer_async(
                24, 3, "silent", "random", watching=watching,
                faults=FaultInjector(schedule, n=24, seed=3),
            )

        sim, grouped = run(watching=False)
        assert sim._watcher is None and sim._delay_classes is not None
        assert sim._uniform_fast is None and sim._constant_fast is None
        _, per_message = run(watching=True)
        _assert_same_result(grouped, per_message)
        # and the classes did rescale something: the unfaulted run differs
        _, unfaulted = _aer_async(24, 3, "silent", "random")
        assert unfaulted.metrics.decision_times != grouped.metrics.decision_times


class TestStoppedBy:
    """Why a run stopped: on its own, or because a safety cap fired."""

    def _aer(self, **caps):
        n = 32
        config = AERConfig.for_system(n)
        scenario = make_scenario(
            n, config=config, t=8, knowledge_fraction=0.56, wrong_candidate_mode="random", seed=2
        )
        nodes = build_aer_nodes(scenario, config)
        sim = AsynchronousSimulator(nodes, n=n, seed=2, size_model=config.size_model(), **caps)
        return sim.run()

    def test_uncapped_run_stops_on_its_own(self):
        result = self._aer()
        expected = "decided" if result.all_correct_decided else "quiescent"
        assert result.stopped_by == expected and result.truncated is None
        run = RunResult.from_simulation("aer", result)
        assert run.stopped_by is None and "stopped_by" not in run.to_dict()

    def test_tiny_event_cap_is_named(self):
        result = self._aer(max_events=50)
        assert result.stopped_by == "max_events" == result.truncated
        assert not result.agreement_reached
        run = RunResult.from_simulation("aer", result)
        assert run.stopped_by == "max_events" and run.to_dict()["stopped_by"] == "max_events"
        assert RunResult.from_dict(run.to_dict()) == run

    def test_tiny_time_cap_is_named(self):
        assert self._aer(max_time=0.5).stopped_by == "max_time"

    def test_everyone_deciding_is_decided(self):
        nodes = [AllDecideNode(i) for i in range(4)]
        assert AsynchronousSimulator(nodes, n=4, seed=0).run().stopped_by == "decided"

    def test_nothing_in_flight_is_quiescent(self):
        nodes = [ChainNode(i, 4, max_hops=2) for i in range(4)]
        result = AsynchronousSimulator(nodes, n=4, seed=0).run()
        assert result.stopped_by == "quiescent" and result.truncated is None


# ----------------------------------------------------------------------
# delay runs: a multicast with one arrival time is one queued entry
# ----------------------------------------------------------------------
class PerDestinationSimulator(AsynchronousSimulator):
    """The reference for delay runs: every destination is queued on its own.

    Each destination goes through the scheduler as a one-destination
    multicast, in destination order, so it sees the same observations,
    delay choices and sequence numbers as inside the grouped multicast.
    """

    def _schedule(self, sender, dests, message, bits):
        for dest in dests:
            super()._schedule(sender, (dest,), message, bits)


class MulticastNode(Node):
    """Multicasts one tick to every peer at start; decides after ``quota`` ticks."""

    def __init__(self, node_id: int, quota: int) -> None:
        super().__init__(node_id)
        self.quota = quota
        self.received = 0

    def on_start(self) -> None:
        self.send_many([p for p in range(self.context.n) if p != self.node_id], Tick())

    def on_message(self, sender: int, message: Message) -> None:
        self.received += 1
        if self.received >= self.quota:
            self.decide(self.received)


def _queue_entries(sim) -> int:
    """Entries (single events and delay runs) still queued in ``sim``."""
    return sum(map(len, sim._buckets.values())) + len(sim._cur_list) - sim._cur_idx


class SamplingSimulator(AsynchronousSimulator):
    """Samples ``(queue entries, events in flight)`` once per unit of simulated time."""

    def _schedule(self, sender, dests, message, bits):
        samples = self.__dict__.setdefault("samples", {})
        unit = int(self._time)
        if unit not in samples:
            samples[unit] = (_queue_entries(self), self._pending)
        super()._schedule(sender, dests, message, bits)


def _multicast_run(simulator, n, quota, **kwargs):
    nodes = [MulticastNode(i, quota) for i in range(n)]
    sim = simulator(nodes=nodes, n=n, seed=4, delay_policy=ConstantDelayPolicy(0.5), **kwargs)
    return sim, sim.run(), [node.received for node in nodes]


class TestDelayRuns:
    def test_a_constant_delay_multicast_is_one_entry(self):
        nodes = [MulticastNode(i, quota=5) for i in range(6)]
        sim = AsynchronousSimulator(
            nodes=nodes, n=6, seed=4, delay_policy=ConstantDelayPolicy(0.5)
        )
        for node in nodes:
            node.on_start()
        assert sim._pending == 30 and _queue_entries(sim) == 6

    def test_an_event_cap_inside_a_run(self):
        # six runs of five destinations each; the 8th delivery is the third
        # destination of the second run
        sim, result, received = _multicast_run(AsynchronousSimulator, 6, 5, max_events=8)
        _, reference, reference_received = _multicast_run(
            PerDestinationSimulator, 6, 5, max_events=8
        )
        assert result.stopped_by == reference.stopped_by == "max_events"
        assert sum(received) == 8 and received == reference_received
        assert sim._pending == 22 and _queue_entries(sim) == 5
        _assert_same_result(result, reference)

    def test_every_node_deciding_part_way_through_a_run(self):
        # node 0's run reaches nodes 1-5; node 0 decides on the first
        # destination of node 1's run, and the rest of that run stays queued
        sim, result, received = _multicast_run(AsynchronousSimulator, 6, 1)
        _, reference, reference_received = _multicast_run(PerDestinationSimulator, 6, 1)
        assert result.stopped_by == reference.stopped_by == "decided"
        assert received == reference_received == [1, 1, 1, 1, 1, 1]
        assert sim._pending == 24 and _queue_entries(sim) == 5
        _assert_same_result(result, reference)

    @pytest.mark.parametrize("interject", [False, True])
    def test_an_adversary_sending_part_way_through_a_multicast(self, interject):
        class Interjecting(DelayRecordingAdversary):
            """Holds every delay at 0.5; sends as node 5 while observing a send to node 2."""

            def observe_send(self, record):
                super().observe_send(record)
                if interject and record.dest == 2 and record.sender != 5:
                    self.context.send_as(5, 0, Tick())

        def build(simulator):
            nodes = [MulticastNode(i, quota=4) for i in range(5)]
            adversary = Interjecting({5}, forced_delay=0.5)
            return simulator(nodes=nodes, n=6, adversary=adversary, seed=4), nodes

        sim, nodes = build(AsynchronousSimulator)
        for node in nodes:
            node.on_start()
        # five multicasts of five destinations; node 0 hears from node 5 once
        # per multicast that reaches node 2 (all but node 2's own)
        assert sim._pending == (29 if interject else 25)
        # an interjection splits a multicast's sequence numbers, so only node
        # 2's multicast is a run; without one, each multicast is
        expected = sim._pending - 4 if interject else 5
        assert _queue_entries(sim) == expected

        sim, nodes = build(AsynchronousSimulator)
        result = sim.run()
        reference_sim, reference_nodes = build(PerDestinationSimulator)
        reference = reference_sim.run()
        assert [node.received for node in nodes] == [node.received for node in reference_nodes]
        _assert_same_result(result, reference)

    @pytest.mark.parametrize("adversary, runs", [("cornering", True), ("none", False)])
    def test_queue_entries_against_events_in_flight(self, adversary, runs):
        # cornering holds honest traffic at 1.0 and sends its own at
        # MIN_DELAY, so its multicasts are runs; random delays form none
        sim, _ = _aer_async(48, 1, adversary, "random", simulator=SamplingSimulator)
        samples = [(entries, pending) for entries, pending in sim.samples.values() if pending]
        assert len(samples) >= 3
        if runs:
            # at the peak; the tail holds single sends only
            entries, pending = max(samples, key=lambda sample: sample[1])
            assert entries < pending
        else:
            assert all(entries == pending for entries, pending in samples)

    @pytest.mark.parametrize("adversary, policy, faults", [
        ("cornering", "random", None),
        ("cornering", "random", {"loss_rate": 0.1}),
        ("none", "constant", None),
        ("quorum_flood", "constant", None),
        ("slow_knowledgeable", "constant", None),
        ("silent", "constant", {"slow_fraction": 0.5, "slow_factor": 3.0}),
    ])
    def test_aer_runs_equal_the_per_destination_reference(self, adversary, policy, faults):
        def run(simulator):
            injector = None
            if faults is not None:
                injector = FaultInjector(FaultSchedule.from_dict(faults), n=24, seed=3)
            return _aer_async(24, 3, adversary, policy, faults=injector, simulator=simulator)[1]

        result = run(AsynchronousSimulator)
        assert result.metrics_all.total_messages > 0
        _assert_same_result(result, run(PerDestinationSimulator))
