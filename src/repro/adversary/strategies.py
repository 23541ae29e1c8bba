"""Basic Byzantine strategies: silence, noise, equivocation, wrong answers.

These are the "textbook" behaviours every Byzantine-fault-tolerant protocol
must survive.  They are used throughout the test-suite and as the default
adversaries of several benchmarks; the heavier, AER-specific attacks live in
:mod:`repro.adversary.flooding` (Lemma 4/5) and
:mod:`repro.adversary.cornering` (Lemma 6).
"""

from __future__ import annotations

from typing import List, Optional

from repro.adversary.base import Adversary, AdversaryKnowledge
from repro.adversary.registry import register_adversary
from repro.core.messages import AnswerMessage, PollMessage, PushMessage
from repro.net.kernel import SendRecord
from repro.net.messages import Message
from repro.net.rng import random_bitstring


@register_adversary("silent")
class SilentAdversary(Adversary):
    """Corrupted nodes never send anything — pure crash faults.

    AER guarantees success *deterministically* in this case (introduction:
    "unlike many randomized protocols, success is guaranteed when there is no
    Byzantine fault"); the integration tests check exactly that.
    """


@register_adversary("noise")
class RandomNoiseAdversary(Adversary):
    """Corrupted nodes spray uniformly random pushes and answers.

    The noise is syntactically valid but semantically uncorrelated with the
    protocol state, so the quorum filters discard essentially all of it.  A
    per-node, per-round message budget keeps runs bounded.
    """

    def __init__(
        self,
        byzantine_ids,
        knowledge: AdversaryKnowledge,
        messages_per_round: int = 4,
        max_rounds_active: int = 6,
    ) -> None:
        super().__init__(byzantine_ids, knowledge)
        self.messages_per_round = messages_per_round
        self.max_rounds_active = max_rounds_active

    def on_round(self, round_no: int, observed: Optional[List[SendRecord]]) -> None:
        if round_no >= self.max_rounds_active or self.knowledge is None:
            return
        config = self.knowledge.config
        n = config.n
        for byz_id in sorted(self.byzantine_ids):
            for _ in range(self.messages_per_round):
                dest = self.rng.randrange(n)
                junk = random_bitstring(self.rng, config.string_length)
                if self.rng.random() < 0.5:
                    message: Message = PushMessage(candidate=junk)
                else:
                    message = AnswerMessage(candidate=junk)
                self.send_as(byz_id, dest, message)

    def on_start(self) -> None:
        # In the asynchronous scheduler there are no rounds; fire the budget once.
        self.on_round(0, None)


@register_adversary("equivocate")
class EquivocatingPushAdversary(Adversary):
    """Corrupted nodes push *different* wrong strings to different victims.

    Channels are only authenticated (no transferable signatures), so nothing
    prevents a Byzantine node from telling every victim a different story;
    the push-quorum majority filter is what renders this harmless.
    """

    def __init__(
        self,
        byzantine_ids,
        knowledge: AdversaryKnowledge,
        victims_per_node: int = 16,
    ) -> None:
        super().__init__(byzantine_ids, knowledge)
        self.victims_per_node = victims_per_node

    def _attack(self) -> None:
        if self.knowledge is None:
            return
        config = self.knowledge.config
        for byz_id in sorted(self.byzantine_ids):
            victims = self.rng.sample(
                range(config.n), min(self.victims_per_node, config.n)
            )
            for victim in victims:
                story = random_bitstring(self.rng, config.string_length)
                self.send_as(byz_id, victim, PushMessage(candidate=story))

    def on_start(self) -> None:
        self._attack()

    def on_round(self, round_no: int, observed: Optional[List[SendRecord]]) -> None:
        if round_no == 0:
            return  # the attack fires from on_start already


@register_adversary("wrong_answer")
class WrongAnswerAdversary(Adversary):
    """Corrupted nodes try to make pollers decide a wrong string (Lemma 7 attack).

    Every corrupted node that receives a ``Poll`` replies with the
    adversary's chosen wrong string instead of the queried one, and every
    corrupted node additionally pushes the wrong string.  Safety relies on
    poll lists having correct majorities (Property 1), which the Lemma 7
    benchmark verifies empirically.
    """

    def __init__(
        self,
        byzantine_ids,
        knowledge: AdversaryKnowledge,
        wrong_string: Optional[str] = None,
    ) -> None:
        super().__init__(byzantine_ids, knowledge)
        self._wrong_string = wrong_string

    @property
    def wrong_string(self) -> str:
        """The string the adversary is trying to get decided."""
        if self._wrong_string is None:
            assert self.knowledge is not None
            self._wrong_string = "1" * self.knowledge.config.string_length
        return self._wrong_string

    def on_start(self) -> None:
        if self.knowledge is None:
            return
        push = PushMessage(candidate=self.wrong_string)
        samplers = self.knowledge.samplers
        for byz_id in sorted(self.byzantine_ids):
            # Push the wrong string to every node whose push quorum contains us,
            # i.e. follow the protocol but for the wrong value.
            for victim in samplers.push.inverse(self.wrong_string, byz_id):
                self.send_as(byz_id, victim, push)

    def on_deliver(self, byz_id: int, sender: int, message: Message) -> None:
        if isinstance(message, PollMessage):
            # Answer the poll, but lie: claim the wrong string is the global one.
            self.send_as(byz_id, sender, AnswerMessage(candidate=self.wrong_string))
            # Also "confirm" whatever was asked if it is already the wrong string,
            # maximising the chance of a wrong decision.
            if message.candidate == self.wrong_string:
                self.send_as(byz_id, sender, AnswerMessage(candidate=message.candidate))

    def on_round(self, round_no: int, observed: Optional[List[SendRecord]]) -> None:
        """Nothing extra per round; the attack is reactive."""
