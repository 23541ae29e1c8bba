"""Synchronous lock-step scheduler.

The synchronous model of Section 2.1: execution proceeds in rounds, and a
message sent during round ``r`` is delivered during round ``r + 1``.  The
adversary comes in two strengths:

* *rushing* — during every round it sees the messages the correct nodes send
  in that round before choosing its own messages;
* *non-rushing* — it chooses its round-``r`` messages independently of the
  correct nodes' round-``r`` messages (it still sees everything delivered up
  to round ``r``).

Lemma 8/9 of the paper are stated for the non-rushing case; the rushing case
falls back to the asynchronous bound of Lemma 6.  Both are selectable here via
the ``rushing`` flag so the benchmarks can reproduce the distinction.

The class is a thin scheduling policy over
:class:`~repro.net.kernel.EventKernel`: it decides *when* dispatched messages
are delivered (at the start of the next round, as one batch) and when the
adversary takes its turn; all delivery, metrics and decision machinery is the
kernel's.  The outbox holds grouped ``(sender, dests, message, bits)``
records, so a multicast costs one append and one metrics update regardless of
fan-out.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.net.kernel import AdversaryProtocol, EventKernel, SendRecord, paused_gc
from repro.net.messages import Message, SizeModel
from repro.net.node import Node
from repro.net.results import SimulationResult


#: safety bound on the prepared-plan memo; overflow clears it (a pure memo —
#: only re-preparation is lost)
_PLAN_MEMO_LIMIT = 1 << 16


class SynchronousSimulator(EventKernel):
    """Round-based execution with a rushing or non-rushing adversary.

    Parameters (in addition to :class:`~repro.net.kernel.EventKernel`)
    ----------
    rushing:
        Whether the adversary observes the current round's correct-node
        messages before sending its own.
    max_rounds:
        Safety cap; the run stops (and the result reports whatever state was
        reached) after this many rounds even if some node has not decided.
    min_rounds:
        Quiescence (an empty message queue) only terminates the run after
        this many rounds; protocols that schedule activity at fixed future
        rounds (e.g. the almost-everywhere coin protocol) set it so that an
        idle early round does not end the run prematurely.
    """

    def __init__(
        self,
        nodes: Sequence[Node],
        n: int,
        adversary: Optional[AdversaryProtocol] = None,
        seed: int = 0,
        rushing: bool = False,
        max_rounds: int = 64,
        min_rounds: int = 0,
        size_model: Optional[SizeModel] = None,
        trace=None,
        faults=None,
    ) -> None:
        super().__init__(
            nodes, n, adversary=adversary, seed=seed, size_model=size_model,
            trace=trace, faults=faults,
        )
        self.rushing = rushing
        self.max_rounds = max_rounds
        self.min_rounds = min_rounds
        self._round = 0
        #: grouped (sender, dests, message, bits) records accepted this round,
        #: delivered as one batch at the start of the next one
        self._outbox: List[tuple] = []
        #: id(plan) -> (plan, priced records, message total, bit total)
        self._prepared_plans: Dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # EventKernel interface (the scheduling policy)
    # ------------------------------------------------------------------
    def now(self) -> float:
        return float(self._round)

    def dispatch_send(self, sender: int, dest: int, message: Message) -> None:
        bits = self.metrics.record_send(sender, message)
        self._outbox.append((sender, (dest,), message, bits))
        if self.trace is not None:
            self.trace.on_dispatch(sender, 1, message.kind, bits)

    def dispatch_send_many(self, sender: int, dests: Sequence[int], message: Message) -> None:
        if not dests:
            return
        dests = tuple(dests)
        message = self.intern_payload(message)
        bits = self.metrics.record_send_many(sender, dests, message)
        self._outbox.append((sender, dests, message, bits))
        if self.trace is not None:
            self.trace.on_dispatch(sender, len(dests), message.kind, bits)

    def dispatch_plan(self, sender: int, plan) -> None:
        """A plan's multicasts with one metrics update and one outbox extend.

        The first sender of a plan pays for it: destinations range checked,
        payloads interned, bits priced, totals summed.  Every sender then
        puts the very ``(sender, dests, message, bits)`` records in the
        outbox that the loop would have, in the same order.  The prepared
        form is kept by the plan's identity — the entry holds the plan, so
        its id cannot be recycled — and only for a tuple, which nobody can
        change afterwards.  A trace collector observes per-record entries,
        so under one the loop runs.
        """
        if type(plan) is not tuple or self.trace is not None:
            super().dispatch_plan(sender, plan)
            return
        prepared = self._prepared_plans.get(id(plan))
        if prepared is None or prepared[0] is not plan:
            prepared = self._prepare_plan(plan)
        _plan, records, messages, bits = prepared
        self.metrics.record_sends(sender, messages, bits)
        self._outbox.extend([(sender, dests, message, cost) for dests, message, cost in records])

    def _prepare_plan(self, plan: tuple) -> tuple:
        records = []
        messages = bits = 0
        for dests, message in plan:
            dests = tuple(self.checked_dests(dests))
            if not dests:
                continue
            message = self.intern_payload(message)
            cost = self.metrics.bits_of(message)
            records.append((dests, message, cost))
            messages += len(dests)
            bits += len(dests) * cost
        prepared = (plan, records, messages, bits)
        if len(self._prepared_plans) >= _PLAN_MEMO_LIMIT:
            self._prepared_plans.clear()
        self._prepared_plans[id(plan)] = prepared
        return prepared

    def run(self) -> SimulationResult:
        """Execute rounds until every correct node decides or ``max_rounds`` is hit."""
        with paused_gc():
            return self._run()

    def _run(self) -> SimulationResult:
        # Round 0: protocol start.
        for node_id in self.correct_ids:
            self.nodes[node_id].on_start()
            self.note_decisions(node_id)
        self._adversary_turn(round_no=0, starting=True)
        decided_round = self._round if self.all_decided() else None

        stopped_by = "max_rounds"
        while not self.all_decided() and self._round < self.max_rounds:
            if not self._outbox and self._round > 0 and self._round >= self.min_rounds:
                stopped_by = "quiescent"  # no message in flight, nobody will ever act again
                break
            self._advance_round()
            if self.all_decided() and decided_round is None:
                decided_round = self._round
        if self.all_decided():
            stopped_by = "decided"

        rounds = decided_round if decided_round is not None else self._round
        self.metrics.record_rounds(rounds)
        return self.build_result(rounds=rounds, span=None, stopped_by=stopped_by)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _advance_round(self) -> None:
        """Deliver last round's messages, then let correct nodes and the adversary act."""
        self._round += 1
        faults = self.faults
        if faults is not None:
            # churn draws happen at the round boundary, before delivery: a
            # node crashing at round r misses round r's inbox and its turn
            faults.advance_time(float(self._round))
        inbox, self._outbox = self._outbox, []
        self.deliver_batch(inbox)

        if faults is None:
            for node_id in self.correct_ids:
                self.nodes[node_id].on_round(self._round)
                self.note_decisions(node_id)
        else:
            for node_id in self.correct_ids:
                if faults.is_down(node_id):
                    continue
                self.nodes[node_id].on_round(self._round)
                self.note_decisions(node_id)

        self._adversary_turn(round_no=self._round, starting=False)

    def _observed_correct_sends(self) -> List[SendRecord]:
        """This round's correct-node sends, flattened for a rushing adversary.

        Built lazily from the outbox only when the adversary is rushing, so
        the common (non-rushing or failure-free) hot path never materialises
        per-message records.  The adversary has not acted yet this round, so
        every outbox record with a correct sender is a correct-node send.
        """
        now = float(self._round)
        nodes = self.nodes
        return [
            SendRecord(sender, dest, message, now)
            for sender, dests, message, _bits in self._outbox
            if sender in nodes
            for dest in dests
        ]

    def _adversary_turn(self, round_no: int, starting: bool) -> None:
        """Give the adversary its (rushing or non-rushing) turn for this round."""
        if self.adversary is None:
            return
        if starting:
            self.adversary.on_start()
        observed = self._observed_correct_sends() if self.rushing else None
        self.adversary.on_round(round_no, observed)
