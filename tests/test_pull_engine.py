"""Unit tests for the pull phase (repro.core.pull, Algorithms 1-3)."""

from __future__ import annotations

from typing import List, Optional, Tuple

import pytest

from repro.core.messages import (
    AnswerMessage,
    Fw1Message,
    Fw2Message,
    PollMessage,
    PullMessage,
)
from repro.core.pull import PullEngine
from repro.samplers.base import SamplerSpec
from repro.samplers.hash_sampler import QuorumSampler
from repro.samplers.poll_sampler import PollSampler

SPEC = SamplerSpec(n=40, quorum_size=7, label_space=1600, seed=4)
GSTRING = "110011001100"
OTHER = "000000000000"


class FakeOwner:
    """Stands in for an AERNode: records sends, tracks belief and decision."""

    def __init__(self, node_id: int, believed: str = GSTRING) -> None:
        self.node_id = node_id
        self.believed = believed
        self.sent: List[Tuple[int, object]] = []
        self.decision: Optional[str] = None
        self.engine: Optional[PullEngine] = None
        self._labels = iter(range(100, 100 + 64))

    @property
    def has_decided(self) -> bool:
        return self.decision is not None

    def send(self, dest: int, message) -> None:
        self.sent.append((dest, message))

    def send_many(self, dests, message) -> None:
        for dest in dests:
            self.sent.append((dest, message))

    def send_plan(self, plan) -> None:
        for dests, message in plan:
            self.send_many(dests, message)

    def decide(self, value) -> None:
        if self.decision is None:
            self.decision = str(value)
            self.believed = str(value)
            if self.engine is not None:
                self.engine.on_decided(self.believed)

    def random_label(self, label_space: int) -> int:
        return next(self._labels) % label_space

    def sent_of_type(self, message_type) -> List[Tuple[int, object]]:
        return [(dest, msg) for dest, msg in self.sent if isinstance(msg, message_type)]


@pytest.fixture(scope="module")
def samplers():
    return QuorumSampler(SPEC, name="H"), PollSampler(SPEC)


def make_engine(samplers, node_id=0, believed=GSTRING, budget=8):
    pull_sampler, poll_sampler = samplers
    owner = FakeOwner(node_id, believed=believed)
    engine = PullEngine(owner, pull_sampler, poll_sampler, answer_budget=budget)
    owner.engine = engine
    return owner, engine


class TestStartPoll:
    def test_sends_poll_to_poll_list_and_pull_to_quorum(self, samplers):
        pull_sampler, poll_sampler = samplers
        owner, engine = make_engine(samplers)
        engine.start_poll(GSTRING)
        label = engine.labels[GSTRING]
        poll_dests = {dest for dest, _ in owner.sent_of_type(PollMessage)}
        pull_dests = {dest for dest, _ in owner.sent_of_type(PullMessage)}
        assert poll_dests == set(poll_sampler.poll_list(owner.node_id, label))
        assert pull_dests == set(pull_sampler.quorum(GSTRING, owner.node_id))

    def test_idempotent(self, samplers):
        owner, engine = make_engine(samplers)
        engine.start_poll(GSTRING)
        first = len(owner.sent)
        engine.start_poll(GSTRING)
        assert len(owner.sent) == first

    def test_not_started_after_decision(self, samplers):
        owner, engine = make_engine(samplers)
        owner.decision = GSTRING
        engine.start_poll(OTHER)
        assert OTHER not in engine.labels

    def test_distinct_labels_per_candidate(self, samplers):
        owner, engine = make_engine(samplers)
        engine.start_poll(GSTRING)
        engine.start_poll(OTHER)
        assert engine.labels[GSTRING] != engine.labels[OTHER]

    def test_polls_launched_counter(self, samplers):
        owner, engine = make_engine(samplers)
        assert engine.polls_launched == 0
        engine.start_poll(GSTRING)
        assert engine.polls_launched == 1


class TestAnswerCounting:
    def test_decides_on_poll_list_majority(self, samplers):
        pull_sampler, poll_sampler = samplers
        owner, engine = make_engine(samplers)
        engine.start_poll(GSTRING)
        label = engine.labels[GSTRING]
        members = poll_sampler.poll_list(owner.node_id, label)
        threshold = poll_sampler.majority_threshold(owner.node_id, label)
        for member in members[:threshold]:
            engine.on_answer(member, AnswerMessage(candidate=GSTRING))
        assert owner.decision == GSTRING

    def test_minority_does_not_decide(self, samplers):
        _, poll_sampler = samplers
        owner, engine = make_engine(samplers)
        engine.start_poll(GSTRING)
        label = engine.labels[GSTRING]
        members = poll_sampler.poll_list(owner.node_id, label)
        threshold = poll_sampler.majority_threshold(owner.node_id, label)
        for member in members[: threshold - 1]:
            engine.on_answer(member, AnswerMessage(candidate=GSTRING))
        assert owner.decision is None

    def test_duplicate_answers_counted_once(self, samplers):
        _, poll_sampler = samplers
        owner, engine = make_engine(samplers)
        engine.start_poll(GSTRING)
        label = engine.labels[GSTRING]
        member = poll_sampler.poll_list(owner.node_id, label)[0]
        for _ in range(20):
            engine.on_answer(member, AnswerMessage(candidate=GSTRING))
        assert owner.decision is None
        assert engine.answers_for(GSTRING) == 1

    def test_answers_from_outside_poll_list_ignored(self, samplers):
        _, poll_sampler = samplers
        owner, engine = make_engine(samplers)
        engine.start_poll(GSTRING)
        label = engine.labels[GSTRING]
        members = set(poll_sampler.poll_list(owner.node_id, label))
        outsiders = [i for i in range(SPEC.n) if i not in members]
        for outsider in outsiders:
            engine.on_answer(outsider, AnswerMessage(candidate=GSTRING))
        assert owner.decision is None

    def test_answers_for_unpolled_candidate_ignored(self, samplers):
        owner, engine = make_engine(samplers)
        engine.on_answer(1, AnswerMessage(candidate="never-polled"))
        assert engine.answers_for("never-polled") == 0


class TestProxyHops:
    def _poller_setup(self, samplers, poller_id=5, label=7):
        """Pick a proxy node that belongs to H(GSTRING, poller)."""
        pull_sampler, poll_sampler = samplers
        proxy_id = pull_sampler.quorum(GSTRING, poller_id)[0]
        return poller_id, proxy_id, label

    def test_on_pull_forwards_fw1_to_pull_quorums_of_poll_list(self, samplers):
        pull_sampler, poll_sampler = samplers
        poller, proxy, label = self._poller_setup(samplers)
        owner, engine = make_engine(samplers, node_id=proxy, believed=GSTRING)
        engine.on_pull(poller, PullMessage(candidate=GSTRING, label=label))
        fw1 = owner.sent_of_type(Fw1Message)
        expected_targets = poll_sampler.poll_list(poller, label)
        assert fw1, "proxy should forward Fw1 messages"
        assert {msg.target for _, msg in fw1} == set(expected_targets)
        for dest, msg in fw1:
            assert dest in pull_sampler.quorum(GSTRING, msg.target)

    def test_on_pull_ignored_if_not_in_quorum(self, samplers):
        pull_sampler, _ = samplers
        poller = 5
        not_member = next(
            i for i in range(SPEC.n) if i not in pull_sampler.quorum(GSTRING, poller)
        )
        owner, engine = make_engine(samplers, node_id=not_member, believed=GSTRING)
        engine.on_pull(poller, PullMessage(candidate=GSTRING, label=3))
        assert owner.sent == []

    def test_on_pull_deferred_when_candidate_not_believed(self, samplers):
        poller, proxy, label = self._poller_setup(samplers)
        owner, engine = make_engine(samplers, node_id=proxy, believed=OTHER)
        engine.on_pull(poller, PullMessage(candidate=GSTRING, label=label))
        assert owner.sent_of_type(Fw1Message) == []
        # once the proxy decides GSTRING the pending pull is served
        owner.decide(GSTRING)
        assert owner.sent_of_type(Fw1Message) != []

    def test_on_pull_served_once(self, samplers):
        poller, proxy, label = self._poller_setup(samplers)
        owner, engine = make_engine(samplers, node_id=proxy, believed=GSTRING)
        message = PullMessage(candidate=GSTRING, label=label)
        engine.on_pull(poller, message)
        count = len(owner.sent)
        engine.on_pull(poller, message)
        assert len(owner.sent) == count

    def test_fw1_majority_triggers_fw2(self, samplers):
        pull_sampler, poll_sampler = samplers
        poller, label = 5, 7
        target = poll_sampler.poll_list(poller, label)[0]
        me = pull_sampler.quorum(GSTRING, target)[0]
        owner, engine = make_engine(samplers, node_id=me, believed=GSTRING)
        origin_quorum = pull_sampler.quorum(GSTRING, poller)
        threshold = pull_sampler.majority_threshold(GSTRING, poller)
        message = Fw1Message(origin=poller, candidate=GSTRING, label=label, target=target)
        for sender in origin_quorum[:threshold]:
            engine.on_fw1(sender, message)
        fw2 = owner.sent_of_type(Fw2Message)
        assert len(fw2) == 1
        assert fw2[0][0] == target

    def test_fw1_below_majority_no_fw2(self, samplers):
        pull_sampler, poll_sampler = samplers
        poller, label = 5, 7
        target = poll_sampler.poll_list(poller, label)[0]
        me = pull_sampler.quorum(GSTRING, target)[0]
        owner, engine = make_engine(samplers, node_id=me, believed=GSTRING)
        origin_quorum = pull_sampler.quorum(GSTRING, poller)
        threshold = pull_sampler.majority_threshold(GSTRING, poller)
        message = Fw1Message(origin=poller, candidate=GSTRING, label=label, target=target)
        for sender in origin_quorum[: threshold - 1]:
            engine.on_fw1(sender, message)
        assert owner.sent_of_type(Fw2Message) == []

    def test_fw1_forged_label_does_not_count_after_state_exists(self, samplers):
        """A quorum member forging the label gets no vote, even on a warm key.

        Regression for the columnar fast path: once a legitimate Fw1 created
        the per-key state, later Fw1s carrying a label whose ``(origin,
        label, target)`` triple is *not* a real poll-list edge must still be
        filtered — a Byzantine member of ``H(s, origin)`` must not complete
        the majority with forged-label copies, and the forged label must not
        leak into the eventual Fw2.
        """
        pull_sampler, poll_sampler = samplers
        poller, label = 5, 7
        target = poll_sampler.poll_list(poller, label)[0]
        bogus_label = next(
            r for r in range(poll_sampler.label_space)
            if not poll_sampler.contains(poller, r, target)
        )
        me = pull_sampler.quorum(GSTRING, target)[0]
        owner, engine = make_engine(samplers, node_id=me, believed=GSTRING)
        origin_quorum = pull_sampler.quorum(GSTRING, poller)
        threshold = pull_sampler.majority_threshold(GSTRING, poller)
        good = Fw1Message(origin=poller, candidate=GSTRING, label=label, target=target)
        engine.on_fw1(origin_quorum[0], good)  # creates the per-key state
        for sender in origin_quorum[1:threshold]:
            forged = Fw1Message(
                origin=poller, candidate=GSTRING, label=bogus_label, target=target
            )
            engine.on_fw1(sender, forged)
        assert owner.sent_of_type(Fw2Message) == []  # forged votes did not count
        # the remaining legitimate copies still complete the majority
        for sender in origin_quorum[1:threshold]:
            engine.on_fw1(sender, good)
        fw2 = owner.sent_of_type(Fw2Message)
        assert len(fw2) == 1 and fw2[0][1].label == label

    def test_fw1_from_non_quorum_sender_ignored(self, samplers):
        pull_sampler, poll_sampler = samplers
        poller, label = 5, 7
        target = poll_sampler.poll_list(poller, label)[0]
        me = pull_sampler.quorum(GSTRING, target)[0]
        owner, engine = make_engine(samplers, node_id=me, believed=GSTRING)
        outsider = next(
            i for i in range(SPEC.n) if i not in pull_sampler.quorum(GSTRING, poller)
        )
        message = Fw1Message(origin=poller, candidate=GSTRING, label=label, target=target)
        for _ in range(10):
            engine.on_fw1(outsider, message)
        assert owner.sent_of_type(Fw2Message) == []

    def test_fw2_forwarded_only_once(self, samplers):
        pull_sampler, poll_sampler = samplers
        poller, label = 5, 7
        target = poll_sampler.poll_list(poller, label)[0]
        me = pull_sampler.quorum(GSTRING, target)[0]
        owner, engine = make_engine(samplers, node_id=me, believed=GSTRING)
        origin_quorum = pull_sampler.quorum(GSTRING, poller)
        message = Fw1Message(origin=poller, candidate=GSTRING, label=label, target=target)
        for sender in origin_quorum:
            engine.on_fw1(sender, message)
        assert len(owner.sent_of_type(Fw2Message)) == 1


def fw1_meaning(engine: PullEngine) -> dict:
    """What an engine's first-hop state *means*, per key: label, sent, and votes while unsent.

    A member that has sent never reads its votes again, so they are not
    part of the meaning (a shared vote set keeps growing past that point).
    """
    return {
        key: (state[1], state[2], None if state[2] else frozenset(state[0]))
        for key, state in engine._fw1_state.items()
    }


class TestGroupedFw1:
    """``grouped_on_fw1`` against ``on_fw1`` per destination, record by record.

    End-to-end runs only ever hand the grouped handler what correct proxies
    multicast; here it also gets outsiders as senders, forged and changing
    labels, unbelieved candidates and destinations with no engine.
    """

    @staticmethod
    def _population(samplers, wire, missing, believes=lambda node_id: node_id % 3):
        engines = []
        for node_id in range(SPEC.n):
            if node_id in missing:
                engines.append(None)
                continue
            owner, engine = make_engine(
                samplers, node_id=node_id, believed=GSTRING if believes(node_id) else OTHER
            )
            owner.send = lambda dest, message, me=node_id: wire.append((me, dest, message))
            engines.append(engine)
        return engines

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_effects_as_per_destination_delivery(self, samplers, seed):
        import random

        pull_sampler, poll_sampler = samplers
        rng = random.Random(seed)
        missing = set(rng.sample(range(SPEC.n), 6))
        grouped_wire, reference_wire = [], []
        grouped = self._population(samplers, grouped_wire, missing)
        reference = self._population(samplers, reference_wire, missing)
        handler = PullEngine.grouped_on_fw1(
            grouped, lambda dest, sender, message: grouped_wire.append(("nobody", dest, sender, message))
        )

        edges = []  # (origin, label, target), two labels per origin
        for origin in rng.sample(range(SPEC.n), 4):
            for label in rng.sample(range(poll_sampler.label_space), 2):
                edges.extend((origin, label, w) for w in poll_sampler.poll_list(origin, label)[:3])
        for _ in range(1500):
            origin, label, target = rng.choice(edges)
            if rng.random() < 0.15:
                label = rng.randrange(poll_sampler.label_space)  # mostly not an edge
            candidate = GSTRING if rng.random() < 0.8 else OTHER
            members = pull_sampler.quorum(candidate, origin)
            sender = rng.choice(members) if rng.random() < 0.85 else rng.randrange(SPEC.n)
            message = Fw1Message(origin=origin, candidate=candidate, label=label, target=target)
            dests = pull_sampler.quorum(candidate, target)
            if rng.random() < 0.1:
                dests = tuple(rng.sample(range(SPEC.n), 5))  # not the target's quorum
            handler(sender, dests, message)
            for dest in dests:
                if reference[dest] is None:
                    reference_wire.append(("nobody", dest, sender, message))
                else:
                    reference[dest].on_fw1(sender, message)
            assert grouped_wire == reference_wire
        assert any(entry[0] == "nobody" for entry in grouped_wire)
        assert any(type(entry[2]) is Fw2Message for entry in grouped_wire)
        for mine, theirs in zip(grouped, reference):
            assert (mine is None) == (theirs is None)
            if mine is not None:
                assert fw1_meaning(mine) == fw1_meaning(theirs)


class _GroupedPair:
    """One key's quorum twice: behind ``grouped_on_fw1`` and fed per destination.

    The key is ``(poller, GSTRING, target)`` for the first member of the
    poll list ``J(poller, label)``; ``dests`` is ``H(GSTRING, target)`` and
    ``senders`` is ``H(GSTRING, poller)``.  Nodes in ``missing`` have no
    engine; every other node believes ``GSTRING`` unless in ``doubters``.
    """

    poller, label = 5, 7

    def __init__(self, samplers, missing=(), doubters=()):
        pull_sampler, poll_sampler = samplers
        self.target = poll_sampler.poll_list(self.poller, self.label)[0]
        self.key = (self.poller, GSTRING, self.target)
        self.dests = pull_sampler.quorum(GSTRING, self.target)
        self.senders = pull_sampler.quorum(GSTRING, self.poller)
        self.threshold = pull_sampler.majority_threshold(GSTRING, self.poller)
        self.message = self.fw1(self.label)
        self.grouped_wire, self.reference_wire = [], []
        def believes(node_id):
            return node_id not in doubters

        self.grouped = TestGroupedFw1._population(
            samplers, self.grouped_wire, set(missing), believes
        )
        self.reference = TestGroupedFw1._population(
            samplers, self.reference_wire, set(missing), believes
        )
        self.handler = PullEngine.grouped_on_fw1(
            self.grouped,
            lambda dest, sender, message: self.grouped_wire.append(("nobody", dest, sender, message)),
        )

    def fw1(self, label):
        return Fw1Message(origin=self.poller, candidate=GSTRING, label=label, target=self.target)

    def record(self, sender, message=None, dests=None):
        """One multicast record, to both sides."""
        message = message or self.message
        dests = self.dests if dests is None else dests
        self.handler(sender, dests, message)
        for dest in dests:
            if self.reference[dest] is None:
                self.reference_wire.append(("nobody", dest, sender, message))
            else:
                self.reference[dest].on_fw1(sender, message)
        self.check()

    def one(self, dest, sender, message=None):
        """A single-destination ``on_fw1`` (``send_as``, a fault injector, async)."""
        message = message or self.message
        self.grouped[dest].on_fw1(sender, message)
        self.reference[dest].on_fw1(sender, message)
        self.check()

    def check(self):
        assert self.grouped_wire == self.reference_wire
        for mine, theirs in zip(self.grouped, self.reference):
            if mine is not None:
                assert fw1_meaning(mine) == fw1_meaning(theirs)

    def states(self):
        return [self.grouped[d]._fw1_state[self.key] for d in self.dests if self.grouped[d] is not None]

    def is_grouped(self):
        groups = {id(state[5]) for state in self.states()}
        shared = {id(state[0]) for state in self.states()}
        if groups == {id(None)}:
            assert len(shared) == len(self.states())  # every member owns its votes
            return False
        assert len(groups) == 1 and len(shared) == 1
        return True

    def fw2_senders(self, wire):
        return [entry[0] for entry in wire if type(entry[2]) is Fw2Message]


class TestFw1Group:
    """The shared vote set of ``grouped_on_fw1``: when it forms, acts and dissolves."""

    def test_first_record_groups_the_quorum_and_threshold_sends_in_order(self, samplers):
        pair = _GroupedPair(samplers)
        pair.record(pair.senders[0])
        assert pair.is_grouped()
        for sender in pair.senders[1:pair.threshold - 1]:
            pair.record(sender)
            pair.record(sender)  # duplicates count once
        assert pair.fw2_senders(pair.grouped_wire) == []
        pair.record(pair.senders[pair.threshold - 1])
        assert pair.fw2_senders(pair.grouped_wire) == list(pair.dests)
        for sender in pair.senders[pair.threshold:]:
            pair.record(sender)
        assert pair.is_grouped()
        assert len(pair.grouped_wire) == len(pair.dests)

    def test_single_destination_on_fw1_dissolves(self, samplers):
        pair = _GroupedPair(samplers)
        pair.record(pair.senders[0])
        assert pair.is_grouped()
        pair.one(pair.dests[1], pair.senders[1])
        assert not pair.is_grouped()
        for sender in pair.senders[1:]:
            pair.record(sender)
        assert not pair.is_grouped()
        assert pair.fw2_senders(pair.grouped_wire) == list(pair.dests)

    def test_label_change_dissolves(self, samplers):
        _, poll_sampler = samplers
        pair = _GroupedPair(samplers)
        other = next(
            r for r in range(poll_sampler.label_space)
            if r != pair.label and poll_sampler.contains(pair.poller, r, pair.target)
        )
        pair.record(pair.senders[0])
        assert pair.is_grouped()
        pair.record(pair.senders[1], message=pair.fw1(other))
        assert not pair.is_grouped()
        for sender in pair.senders[2:]:
            pair.record(sender, message=pair.fw1(other))
        fw2 = [entry[2] for entry in pair.grouped_wire if type(entry[2]) is Fw2Message]
        assert fw2 and {message.label for message in fw2} == {other}

    def test_equal_but_not_identical_dests_dissolves(self, samplers):
        pair = _GroupedPair(samplers)
        pair.record(pair.senders[0])
        assert pair.is_grouped()
        copy = tuple(list(pair.dests))
        assert copy == pair.dests and copy is not pair.dests
        pair.record(pair.senders[1], dests=copy)
        assert not pair.is_grouped()
        for sender in pair.senders[2:]:
            pair.record(sender)
        assert pair.fw2_senders(pair.grouped_wire) == list(pair.dests)

    def test_state_that_did_not_start_fresh_forms_no_group(self, samplers):
        pair = _GroupedPair(samplers)
        pair.one(pair.dests[2], pair.senders[0])
        for sender in pair.senders:
            pair.record(sender)
            assert not pair.is_grouped()
        assert pair.fw2_senders(pair.grouped_wire) == list(pair.dests)

    def test_byzantine_member_is_delivered_in_destination_order(self, samplers):
        probe = _GroupedPair(samplers)
        middle = probe.dests[len(probe.dests) // 2]
        pair = _GroupedPair(samplers, missing={middle})
        for sender in pair.senders[:pair.threshold - 1]:
            pair.record(sender)
        assert pair.is_grouped()
        before = len(pair.grouped_wire)
        crossing = pair.senders[pair.threshold - 1]
        pair.record(crossing)
        at_threshold = [
            entry[1] if entry[0] == "nobody" else entry[0]
            for entry in pair.grouped_wire[before:]
        ]
        assert at_threshold == list(pair.dests)
        assert pair.grouped_wire[before + pair.dests.index(middle)] == (
            "nobody", middle, crossing, pair.message
        )
        # past the threshold only the Byzantine member hears of the record
        pair.record(pair.senders[-1])
        assert pair.grouped_wire[-1] == ("nobody", middle, pair.senders[-1], pair.message)
        assert len(pair.grouped_wire) == before + len(pair.dests) + 1

    def test_unbelieving_member_forwards_from_shared_votes_after_deciding(self, samplers):
        probe = _GroupedPair(samplers)
        doubter = probe.dests[1]
        pair = _GroupedPair(samplers, doubters={doubter})
        for sender in pair.senders:
            pair.record(sender)
        assert pair.is_grouped()
        assert doubter not in pair.fw2_senders(pair.grouped_wire)
        assert len(pair.fw2_senders(pair.grouped_wire)) == len(pair.dests) - 1
        for side in (pair.grouped, pair.reference):
            side[doubter].owner.decide(GSTRING)
        pair.check()
        assert pair.fw2_senders(pair.grouped_wire)[-1] == doubter


class TestPollListAnswering:
    def _answering_setup(self, samplers, budget=8, believed=GSTRING):
        """Create an engine for a node that is on the poll list of a poller."""
        pull_sampler, poll_sampler = samplers
        poller, label = 9, 11
        me = poll_sampler.poll_list(poller, label)[0]
        owner, engine = make_engine(samplers, node_id=me, believed=believed, budget=budget)
        quorum = pull_sampler.quorum(GSTRING, me)
        threshold = pull_sampler.majority_threshold(GSTRING, me)
        return owner, engine, poller, label, quorum, threshold

    def test_answer_requires_poll_and_fw2_majority(self, samplers):
        owner, engine, poller, label, quorum, threshold = self._answering_setup(samplers)
        engine.on_poll(poller, PollMessage(candidate=GSTRING, label=label))
        for sender in quorum[:threshold]:
            engine.on_fw2(sender, Fw2Message(origin=poller, candidate=GSTRING, label=label))
        answers = owner.sent_of_type(AnswerMessage)
        assert len(answers) == 1
        assert answers[0][0] == poller

    def test_no_answer_without_poll(self, samplers):
        owner, engine, poller, label, quorum, threshold = self._answering_setup(samplers)
        for sender in quorum[:threshold]:
            engine.on_fw2(sender, Fw2Message(origin=poller, candidate=GSTRING, label=label))
        assert owner.sent_of_type(AnswerMessage) == []

    def test_no_answer_without_fw2_majority(self, samplers):
        owner, engine, poller, label, quorum, threshold = self._answering_setup(samplers)
        engine.on_poll(poller, PollMessage(candidate=GSTRING, label=label))
        for sender in quorum[: threshold - 1]:
            engine.on_fw2(sender, Fw2Message(origin=poller, candidate=GSTRING, label=label))
        assert owner.sent_of_type(AnswerMessage) == []

    def test_poll_after_fw2_majority_answers_immediately(self, samplers):
        # "Necessary in the asynchronous case": Fw2s may arrive before the Poll.
        owner, engine, poller, label, quorum, threshold = self._answering_setup(samplers)
        for sender in quorum[:threshold]:
            engine.on_fw2(sender, Fw2Message(origin=poller, candidate=GSTRING, label=label))
        assert owner.sent_of_type(AnswerMessage) == []
        engine.on_poll(poller, PollMessage(candidate=GSTRING, label=label))
        assert len(owner.sent_of_type(AnswerMessage)) == 1

    def test_answer_sent_once(self, samplers):
        owner, engine, poller, label, quorum, threshold = self._answering_setup(samplers)
        engine.on_poll(poller, PollMessage(candidate=GSTRING, label=label))
        for sender in quorum:
            engine.on_fw2(sender, Fw2Message(origin=poller, candidate=GSTRING, label=label))
        engine.on_poll(poller, PollMessage(candidate=GSTRING, label=label))
        assert len(owner.sent_of_type(AnswerMessage)) == 1

    def test_budget_defers_answers_until_decision(self, samplers):
        owner, engine, poller, label, quorum, threshold = self._answering_setup(samplers, budget=0)
        engine.on_poll(poller, PollMessage(candidate=GSTRING, label=label))
        for sender in quorum[:threshold]:
            engine.on_fw2(sender, Fw2Message(origin=poller, candidate=GSTRING, label=label))
        assert owner.sent_of_type(AnswerMessage) == []  # budget exhausted (0)
        owner.decide(GSTRING)
        assert len(owner.sent_of_type(AnswerMessage)) == 1

    def test_budget_counts_only_pre_decision_answers(self, samplers):
        owner, engine, poller, label, quorum, threshold = self._answering_setup(samplers, budget=1)
        engine.on_poll(poller, PollMessage(candidate=GSTRING, label=label))
        for sender in quorum[:threshold]:
            engine.on_fw2(sender, Fw2Message(origin=poller, candidate=GSTRING, label=label))
        assert engine.answers_sent == 1

    def test_fw2_for_unbelieved_candidate_recorded_then_answered_after_decision(self, samplers):
        owner, engine, poller, label, quorum, threshold = self._answering_setup(
            samplers, believed=OTHER
        )
        engine.on_poll(poller, PollMessage(candidate=GSTRING, label=label))
        for sender in quorum[:threshold]:
            engine.on_fw2(sender, Fw2Message(origin=poller, candidate=GSTRING, label=label))
        assert owner.sent_of_type(AnswerMessage) == []
        owner.decide(GSTRING)
        assert len(owner.sent_of_type(AnswerMessage)) == 1

    def test_fw2_from_outside_own_pull_quorum_ignored(self, samplers):
        pull_sampler, poll_sampler = samplers
        owner, engine, poller, label, quorum, threshold = self._answering_setup(samplers)
        engine.on_poll(poller, PollMessage(candidate=GSTRING, label=label))
        outsiders = [i for i in range(SPEC.n) if i not in quorum]
        for sender in outsiders:
            engine.on_fw2(sender, Fw2Message(origin=poller, candidate=GSTRING, label=label))
        assert owner.sent_of_type(AnswerMessage) == []

    def test_poll_for_node_not_on_list_ignored(self, samplers):
        _, poll_sampler = samplers
        poller, label = 9, 11
        not_member = next(
            i for i in range(SPEC.n) if i not in poll_sampler.poll_list(poller, label)
        )
        owner, engine = make_engine(samplers, node_id=not_member)
        engine.on_poll(poller, PollMessage(candidate=GSTRING, label=label))
        assert (poller, GSTRING) not in engine._polled
