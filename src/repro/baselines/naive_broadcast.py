"""The trivial everywhere protocol: all-to-all broadcast and majority vote.

Every node sends its candidate to every other node and decides on the value
reported by more than half of the population.  This is correct whenever more
than half of all nodes are correct and knowledgeable (the same precondition
as AER), takes a constant number of rounds, and costs ``Θ(n · |s|)`` bits per
node — ``Θ(n² · |s|)`` in total, the quadratic-communication class that
Figure 1b's ``Ω(n² log n)`` column represents and that the paper's
poly-logarithmic protocol improves upon.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.core.messages import PushMessage
from repro.core.scenario import AERScenario
from repro.net.kernel import AdversaryProtocol
from repro.net.messages import Message, SizeModel
from repro.net.node import Node
from repro.net.results import SimulationResult
from repro.net.sync import SynchronousSimulator


class NaiveBroadcastNode(Node):
    """A correct participant of the all-to-all broadcast baseline."""

    def __init__(self, node_id: int, n: int, initial_candidate: str) -> None:
        super().__init__(node_id)
        self.n = n
        self.initial_candidate = initial_candidate
        self._votes: Dict[str, Set[int]] = {}

    def on_start(self) -> None:
        """Broadcast the candidate to every other node (and count the own vote)."""
        message = PushMessage(candidate=self.initial_candidate)
        for peer in range(self.n):
            if peer != self.node_id:
                self.send(peer, message)
        self._record_vote(self.node_id, self.initial_candidate)

    def on_message(self, sender: int, message: Message) -> None:
        if isinstance(message, PushMessage):
            self._record_vote(sender, message.candidate)

    def _record_vote(self, voter: int, candidate: str) -> None:
        if self.has_decided:
            return
        votes = self._votes.setdefault(candidate, set())
        votes.add(voter)
        if len(votes) > self.n // 2:
            self.decide(candidate)


def run_naive_broadcast(
    scenario: AERScenario,
    adversary: Optional[AdversaryProtocol] = None,
    seed: int = 0,
    max_rounds: int = 8,
    trace=None,
) -> SimulationResult:
    """Run the naive broadcast baseline on an AER scenario.

    ``trace`` attaches an optional collector; the baseline has no engine
    probes of its own, so it contributes kernel-level events only
    (message-kind histograms, decision times).
    """
    nodes = [
        NaiveBroadcastNode(node_id, scenario.n, scenario.candidates[node_id])
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
