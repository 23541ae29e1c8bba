"""Adversary base class and the knowledge it is granted.

The base :class:`Adversary` implements the
:class:`~repro.net.kernel.AdversaryProtocol` with entirely passive
behaviour (corrupted nodes stay silent — pure crash faults) so that concrete
strategies only override the hooks they care about.

:class:`AdversaryKnowledge` packages the *full information* the model grants
the adversary: the protocol configuration, the shared samplers, the corrupt
set, and — because the adversary observes all traffic and knows the initial
state — the scenario itself, including ``gstring`` and which correct nodes
know it.  (The adversary is still non-adaptive: the corrupt set is fixed
before the run, and in the honest experiments it is chosen *before*
``gstring`` is drawn, exactly as Lemma 5 assumes.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.core.config import AERConfig, SamplerSuite
from repro.core.scenario import AERScenario
from repro.net.kernel import AdversaryContext, SendRecord
from repro.net.messages import Message


@dataclass(frozen=True)
class AdversaryKnowledge:
    """Everything a full-information adversary may consult when acting."""

    config: AERConfig
    samplers: SamplerSuite
    scenario: AERScenario

    @property
    def gstring(self) -> str:
        """The global string (the adversary observes it from the very first pushes)."""
        return self.scenario.gstring

    @property
    def correct_ids(self) -> List[int]:
        """Identities of the correct nodes."""
        return self.scenario.correct_ids

    @property
    def knowledgeable_ids(self) -> List[int]:
        """Correct nodes that start out knowing ``gstring``."""
        return self.scenario.knowledgeable_ids


class Adversary:
    """Base adversary: controls ``byzantine_ids`` but keeps them silent.

    Subclasses override any of the event hooks (:meth:`on_start`,
    :meth:`on_round`, :meth:`on_deliver`, :meth:`observe_send`,
    :meth:`delay_for`) and use :meth:`send_as` / :meth:`broadcast_as` to emit
    messages from the identities they control.  Overriding one of the last
    two is what makes the asynchronous scheduler call them for every message
    (:attr:`watches_sends`).
    """

    def __init__(
        self,
        byzantine_ids: Iterable[int],
        knowledge: Optional[AdversaryKnowledge] = None,
    ) -> None:
        self._byzantine_ids = frozenset(int(i) for i in byzantine_ids)
        self.knowledge = knowledge
        self._context: Optional[AdversaryContext] = None
        #: total messages this adversary has injected (strategies use it for budgets)
        self.messages_sent = 0

    # ------------------------------------------------------------------
    # AdversaryProtocol
    # ------------------------------------------------------------------
    @property
    def byzantine_ids(self) -> frozenset:
        """The corrupt set (fixed before the run — non-adaptive adversary)."""
        return self._byzantine_ids

    def bind(self, context: AdversaryContext) -> None:
        """Attach the simulator-provided context (called by the simulator)."""
        self._context = context

    def on_start(self) -> None:
        """Called once at time zero.  Default: do nothing."""

    def on_deliver(self, byz_id: int, sender: int, message: Message) -> None:
        """A message reached one of the corrupted nodes.  Default: ignore it."""

    def on_round(self, round_no: int, observed: Optional[List[SendRecord]]) -> None:
        """Synchronous turn.  ``observed`` is non-``None`` only for a rushing adversary."""

    def observe_send(self, record: SendRecord) -> None:
        """Asynchronous full-information observation of every sent message."""

    def delay_for(self, record: SendRecord) -> Optional[float]:
        """Choose the delay of a message (async); ``None`` keeps the default policy."""
        return None

    @property
    def watches_sends(self) -> bool:
        """Whether this class overrides :meth:`observe_send` or :meth:`delay_for`.

        The asynchronous scheduler calls the two hooks once per message only
        for an adversary that watches sends; for any other it keeps each
        multicast one grouped record and draws the delays itself.  Compared
        through the class at call time, so a wrapper installed on
        ``Adversary`` itself (a profiler's) is inherited by both sides of
        the comparison and does not flip the answer.
        """
        cls = type(self)
        return (
            cls.observe_send is not Adversary.observe_send
            or cls.delay_for is not Adversary.delay_for
        )

    # ------------------------------------------------------------------
    # helpers for subclasses
    # ------------------------------------------------------------------
    @property
    def context(self) -> AdversaryContext:
        """The bound context; raises if used outside a simulation."""
        if self._context is None:
            raise RuntimeError("adversary is not bound to a simulator")
        return self._context

    @property
    def rng(self):
        """The adversary's own RNG (derived from the master seed)."""
        return self.context.rng

    def send_as(self, byz_id: int, dest: int, message: Message) -> None:
        """Send ``message`` to ``dest`` from the corrupted identity ``byz_id``."""
        self.context.send_as(byz_id, dest, message)
        self.messages_sent += 1

    def broadcast_as(self, byz_id: int, dests: Iterable[int], message: Message) -> None:
        """Send the same message from ``byz_id`` to every destination in ``dests``."""
        for dest in dests:
            self.send_as(byz_id, dest, message)
