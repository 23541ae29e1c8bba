"""The AER node: the per-node state machine of the paper's Section 3 protocol.

An :class:`AERNode` glues together the two phase engines:

* :class:`~repro.core.push.PushEngine` — diffusion and filtering of candidate
  strings (Section 3.1.1);
* :class:`~repro.core.pull.PullEngine` — verification of candidates through
  poll lists and pull quorums (Section 3.1.2, Algorithms 1-3).

The node's externally visible outcome is its :attr:`~repro.net.node.Node.decision`,
which Lemma 7 shows equals ``gstring`` w.h.p. for every correct node.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import AERConfig, SamplerSuite
from repro.core.messages import (
    AnswerMessage,
    Fw1Message,
    Fw2Message,
    PollMessage,
    PullMessage,
    PushMessage,
)
from repro.core.pull import PullEngine
from repro.core.push import PushEngine
from repro.net.messages import Message
from repro.net.node import Node


class AERNode(Node):
    """A correct participant of the AER protocol.

    Parameters
    ----------
    node_id:
        The node's identity in ``[0, n)``.
    config:
        Protocol parameters (quorum sizes, answer budget, ...).
    samplers:
        The shared sampler suite ``(I, H, J)``; all nodes must be constructed
        with the *same* suite, mirroring the paper's shared-sampler
        assumption.
    initial_candidate:
        The node's candidate string ``s_x`` — equal to ``gstring`` for
        knowledgeable nodes, arbitrary otherwise.
    trace:
        Optional :class:`~repro.trace.collector.TraceCollector` shared by
        every node of the run; threaded into both phase engines.  ``None``
        (the default) disables tracing at zero cost.
    """

    def __init__(
        self,
        node_id: int,
        config: AERConfig,
        samplers: SamplerSuite,
        initial_candidate: str,
        trace=None,
    ) -> None:
        super().__init__(node_id)
        self.config = config
        self.samplers = samplers
        self.initial_candidate = initial_candidate
        self.trace = trace
        #: the string this node currently believes to be ``gstring`` (``s_this``)
        self.believed: str = initial_candidate
        self._pull_phase_started = False

        self.push_engine = PushEngine(
            node_id=node_id,
            push_sampler=samplers.push,
            initial_candidate=initial_candidate,
            trace=trace,
        )
        self.pull_engine = PullEngine(
            owner=self,
            pull_sampler=samplers.pull,
            poll_sampler=samplers.poll,
            answer_budget=config.answer_budget,
            trace=trace,
        )
        # Exact-type dispatch table for the hot message loop; unknown types
        # fall back to the isinstance chain (and are ultimately ignored).
        pull = self.pull_engine
        self._on_fw1 = pull.on_fw1
        self._handlers = {
            PushMessage: self._on_push,
            PullMessage: pull.on_pull,
            PollMessage: pull.on_poll,
            Fw1Message: pull.on_fw1,
            Fw2Message: pull.on_fw2,
            AnswerMessage: pull.on_answer,
        }

    # ------------------------------------------------------------------
    # PullOwner interface
    # ------------------------------------------------------------------
    def random_label(self, label_space: int) -> int:
        """Draw a private uniformly random poll label (Algorithm 1's ``UniformRand``)."""
        return self.context.rng.randrange(label_space)

    def decide(self, value: object) -> None:
        """Decide on ``value`` and update the believed string accordingly.

        The pseudocode's ``s_this ← s`` upon decision; flushing of work that
        was waiting for the belief change is delegated to the pull engine.
        """
        if self.has_decided:
            return
        super().decide(value)
        self.believed = str(value)
        self.pull_engine.on_decided(self.believed)

    # ------------------------------------------------------------------
    # protocol callbacks
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        """Send the push-phase messages and (eagerly) start verifying ``s_x``."""
        targets = self.push_engine.push_targets()
        if self.trace is not None:
            self.trace.phase_started(self.node_id, "push")
            self.trace.push_sent(self.node_id, len(targets))
        self.send_many(targets, PushMessage(candidate=self.initial_candidate))
        if self.config.eager_pull:
            self._pull_phase_started = True
            if self.trace is not None:
                self.trace.phase_started(self.node_id, "pull")
            self.pull_engine.start_poll(self.initial_candidate)

    def on_round(self, round_no: int) -> None:
        """Non-eager mode only: start the pull phase at the configured round."""
        if self.config.eager_pull or self._pull_phase_started:
            return
        if round_no >= self.config.pull_start_round:
            self._pull_phase_started = True
            if self.trace is not None:
                self.trace.phase_started(self.node_id, "pull")
            for candidate in sorted(self.push_engine.candidates):
                self.pull_engine.start_poll(candidate)

    def _on_push(self, sender: int, message: PushMessage) -> None:
        accepted = self.push_engine.receive_push(sender, message.candidate)
        if accepted is not None and self._pull_phase_started:
            self.pull_engine.start_poll(accepted)

    def on_message(self, sender: int, message: Message) -> None:
        """Dispatch to the phase engines by (exact) message type."""
        if type(message) is Fw1Message:
            # ~90% of a run's traffic is the Fw1 forwarding hop (d² messages
            # per poll edge); branch straight to it before the dict dispatch.
            self._on_fw1(sender, message)
            return
        handler = self._handlers.get(type(message))
        if handler is not None:
            handler(sender, message)
            return
        # Subclassed protocol messages still reach their handler; anything
        # else (e.g. junk injected by the adversary) is ignored.
        for message_type, fallback in self._handlers.items():
            if isinstance(message, message_type):
                fallback(sender, message)
                return

    @classmethod
    def grouped_handlers(cls, nodes, deliver_one):
        """Offer the ``Fw1`` hop — d·d·|J| messages per poll — as whole records.

        Only while ``on_message`` is :class:`AERNode`'s own: a subclass that
        overrides it is promised every message, so it is offered nothing and
        keeps per-destination delivery.  Compared through the class when the
        kernel asks, so a wrapper installed on ``AERNode.on_message`` itself
        (the benchmark's tracer) is inherited by both sides.
        """
        if cls.on_message is not AERNode.on_message:
            return {}
        engines = [None if node is None else node.pull_engine for node in nodes]
        return {Fw1Message: PullEngine.grouped_on_fw1(engines, deliver_one)}

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def candidate_list(self) -> frozenset:
        """The node's candidate list ``L_x``."""
        return frozenset(self.push_engine.candidates)

    @property
    def knows_gstring(self) -> Optional[bool]:
        """Whether the node has decided (``None`` while undecided)."""
        if not self.has_decided:
            return None
        return True
