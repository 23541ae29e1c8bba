"""The almost-everywhere agreement protocol itself.

Synchronous round schedule (messages sent in round ``r`` arrive in ``r + 1``):

========= ====================================================================
round 0   root-committee members send their private random *contributions*
          to the rest of the root committee
round 2   root-committee members *echo* the contribution vector they received
round 4   root-committee members combine the majority-echoed contributions
          into ``gstring`` (XOR) and start *relaying* it to the root's child
          committees
round ≥5  dissemination cascades reactively: a node that sees the same value
          relayed by a majority of a parent committee adopts it and relays it
          to the children of its own committee(s)
========= ====================================================================

The protocol is synchronous by design — the paper itself notes that no
efficient *asynchronous* almost-everywhere agreement protocol is known
(Section 5), and its BA composition implicitly runs this phase synchronously.

:func:`run_ae_stage` is the one place the stage is executed: it builds the
committee tree and the correct population, runs them, reads the outcome off
the node objects (:attr:`AENode.learned`) and converts it into the
:class:`~repro.core.scenario.AERScenario` every everywhere stage consumes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import Dict, List, Optional, Set, Tuple

from repro.ae.coin import combine_contributions, majority_string
from repro.ae.committees import CommitteeTree
from repro.ae.config import AEConfig
from repro.ae.messages import ContributionMessage, EchoMessage, RelayMessage
from repro.core.scenario import AERScenario
from repro.net.messages import Message, SizeModel
from repro.net.node import Node
from repro.net.results import SimulationResult
from repro.net.rng import random_bitstring
from repro.net.sync import SynchronousSimulator

#: round at which root members echo the contributions they received
ECHO_ROUND = 2
#: round at which root members finalise the string and start disseminating
FINALIZE_ROUND = 4


class AENode(Node):
    """A correct participant of the committee-tree almost-everywhere protocol."""

    def __init__(self, node_id: int, config: AEConfig, tree: CommitteeTree) -> None:
        super().__init__(node_id)
        self.config = config
        self.tree = tree
        #: the string this node has learned, or ``None``
        self.learned: Optional[str] = None

        self._is_root_member = node_id in tree.root.members
        self._own_contribution: Optional[str] = None
        #: contributions received directly (origin -> bits)
        self._contributions: Dict[int, str] = {}
        #: echoed views received (echoer -> {origin: bits})
        self._echoes: Dict[int, Dict[int, str]] = {}
        #: relay votes: (parent committee index, value) -> set of senders
        self._relay_votes: Dict[Tuple[int, str], Set[int]] = {}
        #: committees this node has already relayed for
        self._relayed_for: Set[int] = set()

    # ------------------------------------------------------------------
    # coin protocol (root committee only)
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        if not self._is_root_member:
            return
        self._own_contribution = random_bitstring(self.context.rng, self.config.string_length)
        self._contributions[self.node_id] = self._own_contribution
        message = ContributionMessage(bits_value=self._own_contribution)
        for member in self.tree.root.members:
            if member != self.node_id:
                self.send(member, message)

    def on_round(self, round_no: int) -> None:
        if not self._is_root_member:
            return
        if round_no == ECHO_ROUND:
            view = tuple(sorted(self._contributions.items()))
            message = EchoMessage(view=view)
            for member in self.tree.root.members:
                if member != self.node_id:
                    self.send(member, message)
        elif round_no == FINALIZE_ROUND:
            self._finalize_coin()

    def _finalize_coin(self) -> None:
        """Combine majority-echoed contributions into the committee string and relay it."""
        root = self.tree.root
        threshold = root.majority_threshold()
        # Every member's own view counts as one echo.
        views: List[Dict[int, str]] = [dict(self._contributions)]
        views.extend(self._echoes.values())

        agreed: Dict[int, str] = {}
        for origin in root.members:
            reported = [view.get(origin) for view in views if view.get(origin) is not None]
            value = majority_string(reported, threshold=threshold)
            if value is not None:
                agreed[origin] = value
        gstring = combine_contributions(agreed, self.config.string_length)
        self._adopt(gstring)
        self._relay_from(0, gstring)

    # ------------------------------------------------------------------
    # dissemination
    # ------------------------------------------------------------------
    def _adopt(self, value: str) -> None:
        if self.learned is None:
            self.learned = value
            self.decide(value)

    def _relay_from(self, committee_index: int, value: str) -> None:
        """Relay ``value`` to the children of ``committee_index`` (once per committee)."""
        if committee_index in self._relayed_for:
            return
        if self.node_id not in self.tree.committee(committee_index).members:
            return
        self._relayed_for.add(committee_index)
        message = RelayMessage(committee_index=committee_index, value=value)
        for child_index in self.tree.children(committee_index):
            for member in self.tree.committee(child_index).members:
                if member != self.node_id:
                    self.send(member, message)
                else:
                    # A node sampled into both parent and child adopts directly.
                    self._on_relay_accepted(child_index, value)

    def _on_relay_accepted(self, committee_index: int, value: str) -> None:
        """The node, as a member of ``committee_index``, accepted ``value`` from its parent."""
        self._adopt(value)
        if not self.tree.is_leaf(committee_index):
            self._relay_from(committee_index, value)

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------
    def on_message(self, sender: int, message: Message) -> None:
        if isinstance(message, ContributionMessage):
            if self._is_root_member and sender in self.tree.root.members:
                # Only the first claim from each member is kept (authenticated channel).
                self._contributions.setdefault(sender, message.bits_value)
        elif isinstance(message, EchoMessage):
            if self._is_root_member and sender in self.tree.root.members:
                self._echoes.setdefault(sender, dict(message.view))
        elif isinstance(message, RelayMessage):
            self._on_relay(sender, message)

    def _on_relay(self, sender: int, message: RelayMessage) -> None:
        parent_index = message.committee_index
        parent = self.tree.committee(parent_index)
        if sender not in parent.members:
            return
        children = self.tree.children(parent_index)
        my_children = [
            child for child in children
            if self.node_id in self.tree.committee(child).members
        ]
        if not my_children:
            return
        key = (parent_index, message.value)
        votes = self._relay_votes.setdefault(key, set())
        votes.add(sender)
        if len(votes) >= parent.majority_threshold():
            for child_index in my_children:
                self._on_relay_accepted(child_index, message.value)


def build_ae_nodes(
    config: AEConfig,
    byzantine_ids,
    tree: Optional[CommitteeTree] = None,
) -> List[AENode]:
    """Construct the correct-node population for the almost-everywhere protocol."""
    if tree is None:
        tree = CommitteeTree(config)
    byz = set(byzantine_ids)
    return [
        AENode(node_id=node_id, config=config, tree=tree)
        for node_id in range(config.n)
        if node_id not in byz
    ]


def scenario_from_ae_run(
    nodes: List[AENode],
    n: int,
    byzantine_ids,
    string_length: int,
) -> AERScenario:
    """Convert a finished almost-everywhere run into an AER input scenario.

    ``gstring`` is taken to be the value learned by the plurality of correct
    nodes; nodes that learned nothing (their leaf-to-root path crossed a bad
    committee) start AER with the all-zeros default candidate, exactly the
    "set to a default value" case the paper allows for ``s_x``.

    The returned scenario is *not* validated here: whether the
    almost-everywhere phase achieved the ``> 1/2`` knowledge precondition is
    itself an experimental outcome that the BA benchmarks report.
    """
    learned_values = [node.learned for node in nodes if node.learned is not None]
    counter = Counter(learned_values)
    if counter:
        gstring = sorted(counter.items(), key=lambda item: (-item[1], item[0]))[0][0]
    else:
        gstring = "0" * string_length

    default = "0" * string_length
    candidates = {
        node.node_id: node.learned if node.learned is not None else default
        for node in nodes
    }
    return AERScenario(
        n=n,
        gstring=gstring,
        byzantine_ids=frozenset(byzantine_ids),
        candidates=candidates,
    )


def run_ae_stage(
    n: int,
    byzantine_ids,
    string_length: int,
    *,
    seed: int,
    size_model: SizeModel,
    committee_multiplier: float = 2.0,
    max_rounds: int = 64,
    trace=None,
) -> Tuple[SimulationResult, AERScenario]:
    """Run the almost-everywhere stage; return its result and the scenario it leaves.

    ``string_length`` is the everywhere stage's (stage 1 must generate strings
    of exactly the length stage 2 expects); ``size_model`` is the caller's bit
    accounting.  The caller draws ``byzantine_ids`` — each composition keeps
    its own corrupt-set stream — and at least one node must be left correct.
    """
    byzantine_ids = frozenset(byzantine_ids)
    if len(byzantine_ids) >= n:
        raise ValueError(
            f"the almost-everywhere stage needs at least one correct node "
            f"(got {len(byzantine_ids)} corrupted of n={n})"
        )
    config = replace(
        AEConfig.for_system(n, seed=seed, committee_multiplier=committee_multiplier),
        string_length=string_length,
    )
    nodes = build_ae_nodes(config, byzantine_ids)
    result = SynchronousSimulator(
        nodes=nodes,
        n=n,
        seed=seed,
        max_rounds=max_rounds,
        # the coin protocol acts at fixed rounds; idle rounds before them are
        # not quiescence
        min_rounds=FINALIZE_ROUND + 1,
        size_model=size_model,
        trace=trace,
    ).run()
    return result, scenario_from_ae_run(nodes, n, byzantine_ids, string_length)
