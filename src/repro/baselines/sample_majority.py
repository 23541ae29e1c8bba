"""KLST11-style load-balanced almost-everywhere-to-everywhere baseline.

[KLST11] ("Load balanced scalable Byzantine agreement through quorum
building") achieves everywhere agreement from almost-everywhere knowledge at
``O~(√n)`` bits per node while keeping every node's load balanced.  The
essential mechanism this baseline reproduces is *sampled majority voting*:

* every node queries a uniformly random sample of ``Θ(√n · log n)`` peers;
* queried nodes reply with their current candidate string (subject to a
  per-node reply budget, so a Byzantine node cannot trigger unbounded work);
* the querier adopts (and decides) the majority answer.

Because more than half of all nodes are correct and knowledgeable, a sample
of that size contains a majority of knowledgeable nodes w.h.p., so every
correct node decides ``gstring``.  Per-node communication is
``Θ(√n · log n · |s|)`` bits — the ``O~(√n)`` row of Figure 1a — and, unlike
AER, the protocol is load-balanced: every node sends and answers roughly the
same number of messages, which the Figure 1a benchmark verifies by comparing
max and median per-node load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.core.messages import AnswerMessage
from repro.core.scenario import AERScenario
from repro.net.kernel import AdversaryProtocol
from repro.net.messages import Message, SizeModel
from repro.net.node import Node
from repro.net.results import SimulationResult
from repro.net.sync import SynchronousSimulator


@dataclass(frozen=True)
class QueryMessage(Message):
    """A request for the recipient's current candidate string."""

    kind: str = "query"

    def bits(self, size_model: SizeModel) -> int:
        return size_model.kind_bits


@dataclass(frozen=True)
class SampleMajorityConfig:
    """Parameters of the sampled-majority baseline.

    ``sample_size`` defaults to ``⌈√n · log₂ n⌉`` (capped at ``n − 1``) and
    ``reply_budget`` to ``4 ×`` that, which keeps the protocol load-balanced
    while guaranteeing replies to all honest queries w.h.p.
    """

    n: int
    sample_size: int
    reply_budget: int
    string_length: int

    @staticmethod
    def for_system(n: int, string_length: int, sample_multiplier: float = 1.0) -> "SampleMajorityConfig":
        """Default parameters for a system of ``n`` nodes."""
        sample = int(math.ceil(sample_multiplier * math.sqrt(n) * math.log2(max(2, n))))
        sample = max(5, min(sample, max(1, n - 1)))
        return SampleMajorityConfig(
            n=n,
            sample_size=sample,
            reply_budget=4 * sample,
            string_length=string_length,
        )


class SampleMajorityNode(Node):
    """A correct participant of the sampled-majority baseline."""

    def __init__(
        self,
        node_id: int,
        config: SampleMajorityConfig,
        initial_candidate: str,
        trace=None,
    ) -> None:
        super().__init__(node_id)
        self.config = config
        self.initial_candidate = initial_candidate
        self.trace = trace
        self._replies: Dict[str, Set[int]] = {}
        self._queried: Set[int] = set()
        self._replies_sent = 0

    def on_start(self) -> None:
        """Query a fresh uniformly random sample of peers."""
        population = [i for i in range(self.config.n) if i != self.node_id]
        sample_size = min(self.config.sample_size, len(population))
        sample = self.context.rng.sample(population, sample_size)
        self._queried = set(sample)
        query = QueryMessage()
        for peer in sample:
            self.send(peer, query)

    def on_message(self, sender: int, message: Message) -> None:
        if isinstance(message, QueryMessage):
            if self._replies_sent < self.config.reply_budget:
                self._replies_sent += 1
                if self.trace is not None:
                    self.trace.poll_answered(self.node_id, sender)
                self.send(sender, AnswerMessage(candidate=self.initial_candidate))
            elif self.trace is not None:
                # The per-node reply budget (the baseline's flood filter) bit.
                self.trace.budget_exhausted(self.node_id)
        elif isinstance(message, AnswerMessage):
            if self.has_decided or sender not in self._queried:
                return
            votes = self._replies.setdefault(message.candidate, set())
            votes.add(sender)
            if len(votes) > len(self._queried) // 2:
                self.decide(message.candidate)


def run_sample_majority(
    scenario: AERScenario,
    config: Optional[SampleMajorityConfig] = None,
    adversary: Optional[AdversaryProtocol] = None,
    seed: int = 0,
    max_rounds: int = 16,
    trace=None,
) -> SimulationResult:
    """Run the baseline on an AER scenario and return the simulation result."""
    if config is None:
        config = SampleMajorityConfig.for_system(
            scenario.n, string_length=len(scenario.gstring)
        )
    nodes = [
        SampleMajorityNode(node_id, config, scenario.candidates[node_id], trace=trace)
        for node_id in scenario.correct_ids
    ]
    simulator = SynchronousSimulator(
        nodes=nodes,
        n=scenario.n,
        adversary=adversary,
        seed=seed,
        max_rounds=max_rounds,
        size_model=SizeModel(n=scenario.n),
        trace=trace,
    )
    return simulator.run()
