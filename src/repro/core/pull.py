"""Pull phase of AER (Section 3.1.2, Algorithms 1-3).

To verify a candidate ``s ∈ L_x``, the poller ``x`` draws a private random
label ``r`` and addresses two groups simultaneously:

* the *poll list* ``J(x, r)`` — the nodes whose answers are authoritative;
* its *pull quorum* ``H(s, x)`` — proxies that vouch for the request and
  forward it towards the poll list, filtering floods on the way.

The request travels ``x → H(s, x) → H(s, w) → w`` for each ``w ∈ J(x, r)``
(messages ``Pull``, ``Fw1``, ``Fw2``), and each hop forwards only when a
*majority of the previous hop* relayed the request **and** the candidate
matches the forwarder's own believed string.  A poll-list member answers only
within its ``log² n`` answer budget (or after it has itself decided), which
is the filter that bounds the damage of the overload attack analysed in
Lemma 6.  The poller decides ``s`` when a majority of ``J(x, r)`` answered.

Implementation notes (documented deviations from the pseudocode, both
strictly liveness-preserving and safety-neutral — see DESIGN.md §5):

* forwarding state is kept per ``(poller, candidate, poll-list member)``
  rather than per ``(poller, candidate)``, so a node that happens to sit in
  the pull quorums of two different poll-list members serves both;
* majority evidence arriving *before* the node believes the candidate is
  recorded but not acted upon; when the node later decides (and therefore
  updates its believed string, as the pseudocode's "``s_w`` was changed
  accordingly" prescribes) the recorded evidence is re-examined.  This is the
  "Wait for has_decided" branch of Algorithm 3 generalised to every hop.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol, Set, Tuple

from repro.core.messages import (
    AnswerMessage,
    Fw1Message,
    Fw2Message,
    PollMessage,
    PullMessage,
)
from repro.samplers.hash_sampler import QuorumSampler
from repro.samplers.poll_sampler import PollSampler

#: safety bound on each of the two shared per-run memos (Fw1 edge facts,
#: serve plans), which ``run_aer`` empties when the run ends; overflow
#: within a run clears the memo (a pure cache of sampler facts — only
#: recomputation is lost)
_EDGE_MEMO_LIMIT = 1 << 17


class PullOwner(Protocol):
    """What the pull engine needs from the node that owns it."""

    @property
    def node_id(self) -> int:
        """The owning node's identity."""

    @property
    def believed(self) -> str:
        """The string the node currently believes to be ``gstring``."""

    @property
    def has_decided(self) -> bool:
        """Whether the node has already decided."""

    def send(self, dest: int, message) -> None:
        """Send a message over the authenticated channel."""

    def send_many(self, dests, message) -> None:
        """Send the same message to every node in ``dests`` (batched multicast)."""

    def send_plan(self, plan) -> None:
        """Send each ``(dests, message)`` multicast of the shared tuple ``plan``, in order."""

    def decide(self, value: object) -> None:
        """Irrevocably decide on ``value``."""

    def random_label(self, label_space: int) -> int:
        """Draw a fresh private random label."""


class _Fw1Group:
    """One ``Fw1`` key's vote set, shared by a record's whole quorum.

    Formed by :meth:`PullEngine.grouped_on_fw1` when one record created a
    fresh state for the key at every engine-backed destination; from then
    on every member has seen exactly the same records, so one set stands in
    for all of theirs.  ``members`` are the members' ``_fw1_state`` lists,
    aligned with ``dests`` (``None`` where no engine is); ``byzantine`` the
    destinations without one, in order.
    """

    __slots__ = (
        "groups", "key", "dests", "votes", "label", "quorum", "threshold",
        "members", "byzantine", "all_sent",
    )

    def __init__(self, groups: dict, key: tuple, dests: tuple, members: list) -> None:
        first = next(state for state in members if state is not None)
        self.groups = groups
        self.key = key
        self.dests = dests
        self.votes = first[0]
        self.label = first[1]
        self.quorum = first[3]
        self.threshold = first[4]
        self.members = members
        self.byzantine = tuple(d for d, state in zip(dests, members) if state is None)
        self.all_sent = False
        for state in members:
            if state is not None:
                state[0] = self.votes
                state[5] = self
        groups[key] = self

    def dissolve(self) -> None:
        """Give every member a private copy of the votes and drop the group."""
        del self.groups[self.key]
        votes = self.votes
        for state in self.members:
            if state is not None:
                state[0] = set(votes)
                state[5] = None


class PullEngine:
    """Per-node state of the pull phase (poller, proxy and poll-list roles combined)."""

    def __init__(
        self,
        owner: PullOwner,
        pull_sampler: QuorumSampler,
        poll_sampler: PollSampler,
        answer_budget: int,
        trace=None,
    ) -> None:
        self.owner = owner
        self.pull_sampler = pull_sampler
        self.poll_sampler = poll_sampler
        self.answer_budget = answer_budget
        #: optional TraceCollector for the poll/answer/budget probes
        self.trace = trace
        #: the owning node's identity, cached off the property chain — read
        #: once per delivered message on the hot paths
        self._node_id = owner.node_id
        # Shared across every engine bound to this sampler suite: whether an
        # Fw1 message's (origin, label, target) triple names a real poll-list
        # edge is a pure function of the message alone, so the d² recipients
        # of the d copies of one Fw1 share the verdict through this memo.  It
        # is keyed by object identity (entries hold a strong reference to
        # their message, so an id can never be recycled while its entry
        # lives) — a plain int lookup per delivery, robust to the arbitrary
        # delivery interleavings of the asynchronous scheduler, and exact
        # regardless of payload interning (a non-interned duplicate simply
        # misses and recomputes the same pure fact).
        self._fw1_edge_memo: Dict[int, tuple] = pull_sampler.shared_scratch.setdefault(
            "fw1_edge_memo", {}
        )
        # Shared the same way, keyed by value: what serving the pull request
        # ``(origin, candidate, label)`` puts on the wire — one ``(H(s, w),
        # Fw1)`` pair per ``w ∈ J(origin, label)`` — is a pure function of
        # the samplers, so the d proxies of one pull build it once between
        # them instead of |J| equal messages and 2·|J| table queries each.
        self._serve_plans: Dict[Tuple[int, str, int], tuple] = (
            pull_sampler.shared_scratch.setdefault("serve_plans", {})
        )

        # ---- poller state (Algorithm 1) ------------------------------------
        #: candidates for which a poll has been launched, with their labels
        self.labels: Dict[str, int] = {}
        #: per-candidate set of poll-list members that answered
        self._answers: Dict[str, Set[int]] = {}

        # ---- proxy state (Algorithm 2) -------------------------------------
        #: pull requests already served, to prevent re-forwarding floods
        self._served_pulls: Set[Tuple[int, str, int]] = set()
        #: pull requests whose candidate we do not (yet) believe
        self._pending_pulls: List[Tuple[int, str, int]] = []
        #: consolidated first-hop state per (origin, candidate, poll member):
        #: ``[votes, latest label, fw2 sent, sender quorum set, threshold,
        #: group]`` — one dict lookup per Fw1 where three (votes/labels/sent)
        #: plus two sampler-table queries used to be.  ``group`` is the
        #: :class:`_Fw1Group` whose vote set ``votes`` currently is (shared
        #: with the rest of the record's quorum, see :meth:`grouped_on_fw1`),
        #: ``None`` while the vote set is this engine's own.
        self._fw1_state: Dict[Tuple[int, str, int], list] = {}

        # ---- poll-list state (Algorithm 3) ----------------------------------
        #: votes per (origin, candidate): members of H(s, self) that sent Fw2
        self._fw2_votes: Dict[Tuple[int, str], Set[int]] = {}
        #: poll requests received, mapping (origin, candidate) -> label
        self._polled: Dict[Tuple[int, str], int] = {}
        #: labels observed in Fw2 traffic for (origin, candidate)
        self._fw2_labels: Dict[Tuple[int, str], int] = {}
        #: (origin, candidate) pairs already answered
        self._answered: Set[Tuple[int, str]] = set()
        #: answers deferred because the budget was exhausted before deciding
        self._deferred_answers: List[Tuple[int, str]] = []
        #: number of answers sent while undecided (counted against the budget)
        self.answers_sent: int = 0

    # ------------------------------------------------------------------
    # Algorithm 1: the poller
    # ------------------------------------------------------------------
    def start_poll(self, candidate: str) -> None:
        """Launch the verification of ``candidate`` (idempotent)."""
        if candidate in self.labels or self.owner.has_decided:
            return
        label = self.owner.random_label(self.poll_sampler.label_space)
        self.labels[candidate] = label
        self._answers.setdefault(candidate, set())

        node_id = self._node_id
        poll_list = self.poll_sampler.poll_list(node_id, label)
        quorum = self.pull_sampler.quorum(candidate, node_id)
        if self.trace is not None:
            self.trace.poll_started(node_id, len(poll_list), len(quorum))
            self.trace.quorum_contacted(node_id, len(quorum))
        self.owner.send_many(poll_list, PollMessage(candidate=candidate, label=label))
        self.owner.send_many(quorum, PullMessage(candidate=candidate, label=label))

    def on_answer(self, sender: int, message: AnswerMessage) -> None:
        """Count an ``Answer`` towards the decision threshold (Algorithm 1)."""
        candidate = message.candidate
        label = self.labels.get(candidate)
        if label is None or self.owner.has_decided:
            return
        poll_entry = self.poll_sampler.entry(self._node_id, label)
        if sender not in poll_entry.member_set:
            return
        answers = self._answers.setdefault(candidate, set())
        if sender in answers:
            return  # each poll-list member is counted at most once
        answers.add(sender)
        if len(answers) >= poll_entry.threshold:
            self.owner.decide(candidate)

    # ------------------------------------------------------------------
    # Algorithm 2: the proxy hops
    # ------------------------------------------------------------------
    def on_pull(self, sender: int, message: PullMessage) -> None:
        """A poller asked us (as a member of ``H(s, sender)``) to vouch for its request."""
        candidate, label = message.candidate, message.label
        key = (sender, candidate, label)
        if key in self._served_pulls:
            return  # each pull request is served at most once (anti-flooding)
        if not self.pull_sampler.contains(candidate, sender, self._node_id):
            return
        if candidate != self.owner.believed:
            # Remember the request; if we later come to believe this candidate
            # (by deciding on it) we will serve it then.
            self._pending_pulls.append(key)
            return
        self._serve_pull(sender, candidate, label)

    def _serve_pull(self, origin: int, candidate: str, label: int) -> None:
        """Relay ``(origin, candidate, label)`` to ``H(s, w)`` for each ``w ∈ J(origin, label)``.

        What goes on the wire is the same for each of the pull's d proxies,
        so it is one shared tuple of ``(quorum, Fw1)`` pairs (see
        ``__init__``), sent through ``send_plan`` — which lets a scheduler
        validate and price it once for all of them.
        """
        key = (origin, candidate, label)
        if key in self._served_pulls:
            return
        self._served_pulls.add(key)
        plans = self._serve_plans
        plan = plans.get(key)
        if plan is None:
            pull_table = self.pull_sampler.table(candidate)
            plan = tuple(
                (
                    pull_table.quorum(target),
                    Fw1Message(origin=origin, candidate=candidate, label=label, target=target),
                )
                for target in self.poll_sampler.poll_list(origin, label)
            )
            if len(plans) >= _EDGE_MEMO_LIMIT:
                plans.clear()
            plans[key] = plan
        self.owner.send_plan(plan)

    def on_fw1(self, sender: int, message: Fw1Message) -> None:
        """First forwarding hop reached us (as a member of ``H(s, w)``)."""
        origin, candidate = message.origin, message.candidate
        target = message.target
        key = (origin, candidate, target)
        state = self._fw1_state.get(key)
        if state is not None:
            if state[2]:
                # The Fw2 for this key is already on the wire: further
                # first-hop evidence is moot (the vote set is only ever read
                # by threshold checks, which the sent flag guards), so the
                # remaining pure per-delivery checks are skipped outright.
                return
            if state[5] is not None:
                # one member of a shared vote set gets a delivery of its own
                state[5].dissolve()
            # An existing state proves our own membership in H(candidate,
            # target) and carries the sender quorum and threshold, so the
            # steady-state cost per delivery is one set lookup plus one
            # label comparison.
            if sender not in state[3]:
                return
            label = message.label
            if label != state[1]:
                # state[1] only ever holds a *verified* label, so a message
                # carrying it has, by purity of the edge check, a legitimate
                # (origin, label, target) poll edge.  A different label must
                # prove its own edge before the vote counts — exactly the
                # per-message filter the pre-columnar engine applied.
                memo = self._fw1_edge_memo
                cached = memo.get(id(message))
                if cached is None or cached[0] is not message:
                    cached = self._fill_edge_memo(
                        message, self.pull_sampler.table(candidate)
                    )
                if cached[1] is None:
                    return
                state[1] = label
            votes = state[0]
            votes.add(sender)
        else:
            pull_table = self.pull_sampler.table(candidate)
            if not pull_table.contains(target, self._node_id):
                return
            memo = self._fw1_edge_memo
            cached = memo.get(id(message))
            if cached is None or cached[0] is not message:
                cached = self._fill_edge_memo(message, pull_table)
            quorum_set = cached[1]
            if quorum_set is None or sender not in quorum_set:
                return
            state = self._fw1_state[key] = [
                {sender}, message.label, False, quorum_set, cached[2], None
            ]
            votes = state[0]
        if candidate != self.owner.believed:
            return  # evidence recorded; acted upon if we ever believe the candidate
        if len(votes) >= state[4]:
            state[2] = True
            self.owner.send(
                target, Fw2Message(origin=origin, candidate=candidate, label=state[1])
            )

    @staticmethod
    def grouped_on_fw1(
        engines: List[Optional["PullEngine"]],
        deliver_one: Callable[[int, int, Fw1Message], None],
    ) -> Callable[[int, tuple, Fw1Message], None]:
        """:meth:`on_fw1` for a whole multicast record (``Node.grouped_handlers``).

        ``engines`` is indexed by node id (``None``: no correct node there —
        ``deliver_one`` reaches whoever is).  The returned ``f(sender, dests,
        message)`` is ``on_fw1(sender, message)`` on every destination in
        order, with the key and label computed once per record and only the
        steady state — a state exists for the key and carries this label —
        written out here; first arrival and label change are
        :meth:`on_fw1`'s alone.

        A record that creates a fresh state (``{sender}``, its label, not
        sent) at *every* engine-backed destination turns those states into
        an :class:`_Fw1Group`: one vote set shared by the members, held here
        by key.  A later record with the same ``dests`` object and label is
        then one lookup, one quorum test, one ``add`` and one ``len``; the
        destinations are walked only once the threshold is crossed (Fw2 per
        believing member, ``deliver_one`` per Byzantine position, in order),
        otherwise only the Byzantine positions are delivered.  Exact because
        a member that has sent never reads its votes again (every threshold
        check is guarded by ``sent``) and no member acts below the
        threshold.  Anything irregular — other ``dests``, another label, a
        per-destination :meth:`on_fw1` on a member — dissolves the group into
        private copies, and the key runs the per-destination code.
        """
        lookups = [None if e is None else e._fw1_state.get for e in engines]
        arrivals = [None if e is None else e.on_fw1 for e in engines]
        owners = [None if e is None else e.owner for e in engines]
        groups: Dict[Tuple[int, str, int], _Fw1Group] = {}

        def on_fw1_record(sender: int, dests: tuple, message: Fw1Message) -> None:
            origin, candidate = message.origin, message.candidate
            target = message.target
            key = (origin, candidate, target)
            label = message.label
            group = groups.get(key)
            if group is not None:
                if group.dests is dests and group.label == label:
                    if sender in group.quorum and not group.all_sent:
                        votes = group.votes
                        votes.add(sender)
                        if len(votes) >= group.threshold:
                            fw2 = None
                            all_sent = True
                            for dest, state in zip(dests, group.members):
                                if state is None:
                                    deliver_one(dest, sender, message)
                                elif not state[2]:
                                    owner = owners[dest]
                                    if candidate != owner.believed:
                                        all_sent = False
                                        continue
                                    state[2] = True
                                    if fw2 is None:
                                        fw2 = Fw2Message(
                                            origin=origin, candidate=candidate, label=label
                                        )
                                    owner.send(target, fw2)
                            group.all_sent = all_sent
                            return
                    for dest in group.byzantine:
                        deliver_one(dest, sender, message)
                    return
                group.dissolve()
            fw2 = None
            fresh = True
            for dest in dests:
                lookup = lookups[dest]
                if lookup is None:
                    deliver_one(dest, sender, message)
                    continue
                state = lookup(key)
                if state is None:
                    arrivals[dest](sender, message)
                    continue
                fresh = False
                if state[2]:
                    continue  # Fw2 already on the wire
                if state[1] != label:
                    arrivals[dest](sender, message)
                    continue
                if sender not in state[3]:
                    continue
                votes = state[0]
                votes.add(sender)
                owner = owners[dest]
                if candidate != owner.believed:
                    continue
                if len(votes) >= state[4]:
                    state[2] = True
                    if fw2 is None:
                        # the destinations of one record cross their (equal)
                        # thresholds together: one message for all of them
                        fw2 = Fw2Message(origin=origin, candidate=candidate, label=label)
                    owner.send(target, fw2)
            if fresh:
                # first arrival everywhere: group the states if every
                # engine-backed destination now holds a fresh one
                members = [None if lookups[d] is None else lookups[d](key) for d in dests]
                engined = [s for d, s in zip(dests, members) if lookups[d] is not None]
                if engined and all(s is not None and not s[2] for s in engined):
                    _Fw1Group(groups, key, dests, members)

        return on_fw1_record

    def _fill_edge_memo(self, message: Fw1Message, pull_table) -> tuple:
        """Compute and memoise the pure per-message Fw1 facts (memo miss path).

        The entry — whether ``(origin, label, target)`` names a real
        poll-list edge, plus the member set and majority threshold of
        ``H(candidate, origin)`` — is a pure function of the message, shared
        by the d² recipients of the d copies of one Fw1 (see ``__init__``).
        """
        origin = message.origin
        if self.poll_sampler.contains(origin, message.label, message.target):
            cached = (message, pull_table.members(origin), pull_table.threshold(origin))
        else:
            cached = (message, None, 0)
        memo = self._fw1_edge_memo
        if len(memo) >= _EDGE_MEMO_LIMIT:
            memo.clear()
        memo[id(message)] = cached
        return cached

    def _maybe_forward_fw2(self, origin: int, candidate: str, target: int) -> None:
        state = self._fw1_state.get((origin, candidate, target))
        if state is None or state[2]:
            return  # no Fw1 evidence recorded for this key yet, or already sent
        if len(state[0]) >= state[4]:
            state[2] = True
            self.owner.send(
                target, Fw2Message(origin=origin, candidate=candidate, label=state[1])
            )

    # ------------------------------------------------------------------
    # Algorithm 3: the poll-list member
    # ------------------------------------------------------------------
    def on_fw2(self, sender: int, message: Fw2Message) -> None:
        """Second forwarding hop reached us (as a member of ``J(origin, label)``)."""
        origin, candidate, label = message.origin, message.candidate, message.label
        node_id = self._node_id
        if not self.poll_sampler.contains(origin, label, node_id):
            return
        if not self.pull_sampler.table(candidate).contains(node_id, sender):
            return

        key = (origin, candidate)
        votes = self._fw2_votes.get(key)
        if votes is None:
            self._fw2_votes[key] = {sender}
        else:
            votes.add(sender)
        self._fw2_labels[key] = label
        if candidate != self.owner.believed:
            return  # recorded; re-examined after a decision updates the belief
        self._maybe_answer(origin, candidate)

    def on_poll(self, sender: int, message: PollMessage) -> None:
        """The poller itself asked us directly (the ``Poll`` branch of Algorithm 3)."""
        candidate, label = message.candidate, message.label
        if not self.poll_sampler.contains(sender, label, self._node_id):
            return
        key = (sender, candidate)
        self._polled[key] = label
        # "Necessary in the asynchronous case": the Fw2 majority may already be there.
        if candidate == self.owner.believed:
            self._maybe_answer(sender, candidate)

    def _maybe_answer(self, origin: int, candidate: str) -> None:
        key = (origin, candidate)
        if key in self._answered or key not in self._polled:
            return
        votes = self._fw2_votes.get(key)
        threshold = self.pull_sampler.table(candidate).threshold(self._node_id)
        if (len(votes) if votes is not None else 0) < threshold:
            return
        if not self.owner.has_decided and self.answers_sent >= self.answer_budget:
            # Algorithm 3: "if Count > log² n: wait for has_decided".
            self._deferred_answers.append(key)
            if self.trace is not None:
                self.trace.budget_exhausted(self._node_id)
            return
        self._answered.add(key)
        if not self.owner.has_decided:
            self.answers_sent += 1
        if self.trace is not None:
            self.trace.poll_answered(self._node_id, origin)
        self.owner.send(origin, AnswerMessage(candidate=candidate))

    # ------------------------------------------------------------------
    # decision hook
    # ------------------------------------------------------------------
    def on_decided(self, value: str) -> None:
        """The owning node decided ``value``: flush work that was waiting on the belief.

        This implements both the "wait for has_decided" branch of Algorithm 3
        and the pseudocode's premise that a decided node has updated ``s_w``
        and therefore now participates in the propagation of ``gstring``.
        """
        # Serve pull requests for the value we now believe.
        pending, self._pending_pulls = self._pending_pulls, []
        for origin, candidate, label in pending:
            if candidate == value:
                self._serve_pull(origin, candidate, label)

        # Re-examine first-hop forwarding evidence.
        for origin, candidate, target in list(self._fw1_state):
            if candidate == value:
                self._maybe_forward_fw2(origin, candidate, target)

        # Re-examine answering evidence, including previously deferred answers.
        deferred, self._deferred_answers = self._deferred_answers, []
        for origin, candidate in deferred:
            if candidate == value:
                self._maybe_answer(origin, candidate)
        for origin, candidate in list(self._fw2_votes):
            if candidate == value:
                self._maybe_answer(origin, candidate)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def answers_for(self, candidate: str) -> int:
        """Number of distinct poll-list members that answered ``candidate`` so far."""
        return len(self._answers.get(candidate, set()))

    @property
    def polls_launched(self) -> int:
        """Number of candidates this node has started verifying."""
        return len(self.labels)
