"""The poll-overload ("cornering") attack analysed in Lemma 6.

The only way the adversary can slow the pull phase down is to exhaust the
``log² n`` answer budgets of the poll-list members that honest pollers rely
on.  Lemma 6 bounds how far this can go: each corrupted node's requests are
only *considered* when they are for the victim's believed string, requests
not vouched for by a pull-quorum majority are not forwarded, and Property 2
of the sampler ``J`` prevents the adversary from confining the honest polls
to the overloaded region — so overload chains die out after
``O(log n / log log n)`` steps.

:class:`CorneringAdversary` implements the strongest version available in our
model: it is rushing (in the asynchronous scheduler it sees every honest
``Poll`` when it is sent), it targets exactly the poll-list members the
honest nodes are waiting for, it floods them with well-formed requests for
``gstring`` (which they must consider), and it simultaneously delays all
honest traffic to the maximum the reliability constraint allows.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.adversary.base import Adversary, AdversaryKnowledge
from repro.adversary.registry import register_adversary
from repro.core.messages import PollMessage, PullMessage
from repro.net.asynchronous import MIN_DELAY
from repro.net.kernel import SendRecord


@register_adversary("cornering")
class CorneringAdversary(Adversary):
    """Overload the poll-list members honest pollers depend on.

    Parameters
    ----------
    requests_per_node:
        How many poll requests each corrupted node issues (the paper's
        analysis lets each corrupted node send ``O(log n)`` of them).
    labels_tried:
        How many random labels are tried when searching for a label whose
        poll list contains a chosen victim.
    delay_honest:
        Whether to stretch every correct-to-correct message to the maximum
        delay (asynchronous scheduler only).
    """

    def __init__(
        self,
        byzantine_ids,
        knowledge: AdversaryKnowledge,
        requests_per_node: Optional[int] = None,
        labels_tried: int = 64,
        delay_honest: bool = True,
    ) -> None:
        super().__init__(byzantine_ids, knowledge)
        if requests_per_node is None:
            requests_per_node = max(4, knowledge.config.quorum_size)
        self.requests_per_node = requests_per_node
        self.labels_tried = labels_tried
        self.delay_honest = delay_honest
        #: poll-list members observed to be serving honest polls (rushing knowledge)
        self._observed_targets: List[int] = []
        self._attacked: Set[int] = set()
        self._budget_left = {byz: requests_per_node for byz in self.byzantine_ids}

    # ------------------------------------------------------------------
    # observation (rushing / asynchronous full information)
    # ------------------------------------------------------------------
    def observe_send(self, record: SendRecord) -> None:
        if isinstance(record.message, PollMessage) and record.sender not in self.byzantine_ids:
            # These are exactly the nodes whose answers the poller is waiting for.
            self._observed_targets.append(record.dest)
            self._attack_target(record.dest)

    def on_round(self, round_no: int, observed: Optional[List[SendRecord]]) -> None:
        if observed is None:
            # Non-rushing: attack arbitrary knowledgeable nodes instead.
            if round_no == 0 and self.knowledge is not None:
                for victim in self.knowledge.knowledgeable_ids[:16]:
                    self._attack_target(victim)
            return
        for record in observed:
            if isinstance(record.message, PollMessage):
                self._attack_target(record.dest)

    # ------------------------------------------------------------------
    # the overload itself
    # ------------------------------------------------------------------
    def _attack_target(self, victim: int) -> None:
        """Spend corrupted nodes' request budgets on overloading ``victim``."""
        if self.knowledge is None or victim in self._attacked:
            return
        self._attacked.add(victim)
        gstring = self.knowledge.gstring
        poll_sampler = self.knowledge.samplers.poll
        pull_sampler = self.knowledge.samplers.pull

        for byz_id in sorted(self.byzantine_ids):
            if self._budget_left.get(byz_id, 0) <= 0:
                continue
            label = self._find_label_containing(byz_id, victim)
            if label is None:
                continue
            self._budget_left[byz_id] -= 1
            # A well-formed poll for gstring: the victim must consider it.
            self.send_as(byz_id, victim, PollMessage(candidate=gstring, label=label))
            # Also push the request through the pull quorums so it carries the
            # majority evidence needed to actually consume an answer slot.
            pull = PullMessage(candidate=gstring, label=label)
            for member in pull_sampler.quorum(gstring, byz_id):
                self.send_as(byz_id, member, pull)

    def _find_label_containing(self, byz_id: int, victim: int) -> Optional[int]:
        """Find a label ``r`` with ``victim ∈ J(byz_id, r)`` (the adversary knows ``J``)."""
        assert self.knowledge is not None
        poll_sampler = self.knowledge.samplers.poll
        for _ in range(self.labels_tried):
            label = self.rng.randrange(poll_sampler.label_space)
            if victim in poll_sampler.poll_list(byz_id, label):
                return label
        return None

    # ------------------------------------------------------------------
    # scheduling power
    # ------------------------------------------------------------------
    def delay_for(self, record: SendRecord) -> Optional[float]:
        if not self.delay_honest:
            return None
        if record.sender in self.byzantine_ids:
            return MIN_DELAY  # adversarial traffic arrives as fast as possible
        return 1.0  # honest traffic is delayed to the reliability limit

    @property
    def attacked_targets(self) -> int:
        """Number of distinct poll-list members this adversary tried to overload."""
        return len(self._attacked)


@register_adversary("cornering_nodelay")
def cornering_traffic_only(byzantine_ids, knowledge: AdversaryKnowledge):
    """Cornering's overload traffic with honest delays left to the benign policy.

    The scheduler-ablation regime that attributes the asynchronous slowdown:
    the adversary still floods the poll-list members honest pollers depend
    on, but no longer stretches correct-to-correct delays — isolating the
    cost of Byzantine *traffic* from the cost of Byzantine *scheduling*.
    """
    return CorneringAdversary(byzantine_ids, knowledge, delay_honest=False)
