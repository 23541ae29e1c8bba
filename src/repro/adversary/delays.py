"""Pure scheduling adversaries for the asynchronous model.

These adversaries never send a byte; their entire power is the choice of
message delays within the reliability bound.  They isolate the *scheduling*
component of the asynchronous lower bounds from the *Byzantine traffic*
component (the :mod:`repro.adversary.cornering` attack combines both), which
is what the ``ablation_scheduler`` report section compares.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set

from repro.adversary.base import Adversary, AdversaryKnowledge
from repro.adversary.registry import register_adversary
from repro.net.asynchronous import MIN_DELAY
from repro.net.kernel import SendRecord


@register_adversary("slow_knowledgeable")
class SlowKnowledgeableDelays(Adversary):
    """Delay every message *sent by a knowledgeable node* to the maximum.

    The knowledgeable nodes are the ones whose pushes and forwards carry
    ``gstring``; stretching exactly their messages maximises the time until
    quorum majorities for ``gstring`` form, without violating reliability.
    """

    def __init__(self, byzantine_ids, knowledge: AdversaryKnowledge) -> None:
        super().__init__(byzantine_ids, knowledge)
        self._slow: Set[int] = set(knowledge.knowledgeable_ids)

    def delay_for(self, record: SendRecord) -> Optional[float]:
        if record.sender in self._slow:
            return 1.0
        return MIN_DELAY


class TargetedDelayAdversary(Adversary):
    """Delay messages to/from an explicit victim set; everything else is fast."""

    def __init__(
        self,
        byzantine_ids,
        knowledge: AdversaryKnowledge,
        victims: Iterable[int],
    ) -> None:
        super().__init__(byzantine_ids, knowledge)
        self._victims = set(victims)

    def delay_for(self, record: SendRecord) -> Optional[float]:
        if record.sender in self._victims or record.dest in self._victims:
            return 1.0
        return MIN_DELAY
