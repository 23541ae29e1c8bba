"""Push-phase flooding attacks (the Lemma 3/4/5 adversaries).

The push phase is "impervious to flooding" in the sense that nodes never
*react* to a push by sending messages, so the adversary cannot amplify
traffic; what it *can* try is to inflate candidate lists:

* :class:`PushFloodAdversary` sprays many distinct strings at many victims.
  Because a victim only accepts a string pushed by a majority of the
  corresponding push quorum ``I(s, x)``, essentially none of these strings
  are accepted — the benchmark for Lemma 3/4 shows the candidate-list sizes
  stay ``O(n)`` in total and the per-node push cost stays ``O(log n)``
  messages.

* :class:`QuorumTargetedFloodAdversary` is the strongest candidate-list
  attack available to a non-adaptive adversary: for each victim it searches
  for strings whose push quorum happens to contain enough corrupted nodes to
  reach a majority (possibly helped by correct nodes that hold a common wrong
  string), and pushes exactly those.  This is the "seize control of several
  Input Quorums" scenario from the paper's introduction, and it is why AER is
  *not* load-balanced: the victims end up verifying many strings.  Lemma 4's
  claim is that the *total* damage remains ``O(n)`` strings.  Most strings
  tried fail, so the search rejects a string as soon as ``d - d//2``
  distinct correct members of its quorum have been drawn (the rest cannot
  be a majority) and draws full quorums only for the strings it keeps.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.adversary.base import Adversary, AdversaryKnowledge
from repro.adversary.registry import register_adversary
from repro.core.messages import PushMessage
from repro.net.kernel import SendRecord
from repro.net.rng import random_bitstring


@register_adversary("push_flood")
class PushFloodAdversary(Adversary):
    """Spray random candidate strings at random victims during the push phase."""

    def __init__(
        self,
        byzantine_ids,
        knowledge: AdversaryKnowledge,
        strings_per_node: int = 8,
        victims_per_string: int = 8,
    ) -> None:
        super().__init__(byzantine_ids, knowledge)
        self.strings_per_node = strings_per_node
        self.victims_per_string = victims_per_string

    def on_start(self) -> None:
        if self.knowledge is None:
            return
        config = self.knowledge.config
        for byz_id in sorted(self.byzantine_ids):
            for _ in range(self.strings_per_node):
                junk = random_bitstring(self.rng, config.string_length)
                victims = self.rng.sample(
                    range(config.n), min(self.victims_per_string, config.n)
                )
                push = PushMessage(candidate=junk)
                for victim in victims:
                    self.send_as(byz_id, victim, push)

    def on_round(self, round_no: int, observed: Optional[List[SendRecord]]) -> None:
        """The flood fires once at start; nothing to do per round."""


@register_adversary("quorum_flood")
class QuorumTargetedFloodAdversary(Adversary):
    """Force strings into victims' candidate lists by exploiting corrupt quorum majorities.

    For each victim ``x`` the adversary samples candidate strings ``s`` and
    checks how many members of ``I(s, x)`` it controls (plus, optionally,
    correct nodes known to hold ``s`` already — the ``common_wrong`` scenario).
    When the controlled members alone reach a majority, all of them push
    ``s`` to ``x``, which *must* then accept ``s`` into ``L_x`` and later
    spend pull-phase work verifying it.
    """

    def __init__(
        self,
        byzantine_ids,
        knowledge: AdversaryKnowledge,
        victims: Optional[List[int]] = None,
        strings_tried_per_victim: int = 200,
        max_forced_per_victim: int = 8,
    ) -> None:
        super().__init__(byzantine_ids, knowledge)
        self.strings_tried_per_victim = strings_tried_per_victim
        self.max_forced_per_victim = max_forced_per_victim
        self._victims = victims
        #: strings successfully forced, per victim — inspected by the Lemma 4 benchmark
        self.forced: Dict[int, List[str]] = {}

    def _choose_victims(self) -> List[int]:
        assert self.knowledge is not None
        if self._victims is not None:
            return list(self._victims)
        correct = self.knowledge.correct_ids
        count = max(1, min(8, len(correct)))
        return self.rng.sample(correct, count)

    def _find_forcible_strings(self, victim: int) -> List[Tuple[str, List[int]]]:
        """Search random strings whose push quorum at ``victim`` has a corrupt majority.

        Most candidates fail, so each is first put through
        :meth:`_corrupt_majority`, which reads only a prefix of the quorum's
        member draws; only the survivors are drawn in full (and cached) by
        ``sampler.quorum``.  The strings tried, and so the adversary's RNG
        state, are those of testing every full quorum.
        """
        assert self.knowledge is not None
        config = self.knowledge.config
        sampler = self.knowledge.samplers.push
        found: List[Tuple[str, List[int]]] = []
        for _ in range(self.strings_tried_per_victim):
            if len(found) >= self.max_forced_per_victim:
                break
            candidate = random_bitstring(self.rng, config.string_length)
            if self._corrupt_majority(sampler, candidate, victim):
                quorum = sampler.quorum(candidate, victim)
                found.append((candidate, [m for m in quorum if m in self.byzantine_ids]))
        return found

    def _corrupt_majority(self, sampler, candidate: str, victim: int) -> bool:
        """Whether more than half of ``I(candidate, victim)`` is byzantine.

        The quorum is the first ``d`` distinct member draws, so the test
        follows the draws in counter order and stops once either side has
        its share: ``d//2 + 1`` distinct byzantine members make a corrupt
        majority, and ``d - d//2`` distinct correct ones leave at most
        ``d//2`` members to control, so no majority is possible.  One of
        the two is reached by the ``d``-th distinct draw.
        """
        size = sampler.quorum_size
        half = size // 2
        byzantine = self.byzantine_ids
        seen = set()
        correct = 0
        draws = sampler.member_draws(candidate, victim)
        while len(seen) - correct <= half:
            member = next(draws)
            if member not in seen:
                seen.add(member)
                if member not in byzantine:
                    correct += 1
                    if correct == size - half:
                        return False
        return True

    def on_start(self) -> None:
        if self.knowledge is None:
            return
        for victim in self._choose_victims():
            for candidate, controlled in self._find_forcible_strings(victim):
                push = PushMessage(candidate=candidate)
                for byz_id in controlled:
                    self.send_as(byz_id, victim, push)
                self.forced.setdefault(victim, []).append(candidate)

    def on_round(self, round_no: int, observed: Optional[List[SendRecord]]) -> None:
        """The attack fires once at start; nothing to do per round."""

    @property
    def total_forced(self) -> int:
        """Total number of (victim, string) pairs successfully forced."""
        return sum(len(strings) for strings in self.forced.values())
