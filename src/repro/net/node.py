"""Protocol participant base class and its interface to the network.

A protocol (AER, the KSSV-style almost-everywhere agreement, or a baseline)
is implemented as a :class:`Node` subclass: a small state machine that reacts
to :meth:`Node.on_start`, :meth:`Node.on_round` and :meth:`Node.on_message`
callbacks and talks to the outside world exclusively through the
:class:`NodeContext` handed to it by the simulator.

Keeping the node/network boundary this narrow is what lets the same protocol
code run unchanged under the synchronous scheduler (rushing or non-rushing
adversary) and the asynchronous one — which is precisely the comparison the
paper makes between Lemma 8/9 and Lemma 6/10.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol

from repro.net.messages import Message
from repro.net.rng import DeterministicRNG


class NodeContext(Protocol):
    """Capabilities the simulator grants to a single node.

    The context enforces the model of Section 2.1: channels are authenticated
    (the receiver learns the true sender id — a node cannot forge the sender
    field because :meth:`send` stamps it), reliable, and the node's RNG is
    private.
    """

    @property
    def node_id(self) -> int:
        """Identity of the node owning this context."""

    @property
    def n(self) -> int:
        """Total number of nodes in the system."""

    @property
    def rng(self) -> DeterministicRNG:
        """This node's private random number generator."""

    def send(self, dest: int, message: Message) -> None:
        """Send ``message`` to ``dest`` over the authenticated channel."""

    def send_many(self, dests, message: Message) -> None:
        """Send the same ``message`` to every node in ``dests`` (batched multicast)."""

    def send_plan(self, plan) -> None:
        """Send each ``(dests, message)`` multicast of ``plan``, in order."""

    def now(self) -> float:
        """Current time: round number (sync) or event time (async)."""


class Node:
    """Base class for correct protocol participants.

    Subclasses override the ``on_*`` callbacks; they must not keep references
    to other node objects (all interaction goes through messages), which the
    integration tests enforce by running protocols under both schedulers.

    :meth:`on_message` is the contract: one call per delivered message, in
    dispatch order.  A protocol whose traffic is dominated by one multicast
    message type may additionally offer, through the class-level
    :meth:`grouped_handlers` hook, a handler that takes a whole multicast
    record and walks its destinations itself — an optimisation of the same
    per-destination semantics, never a second behaviour.
    """

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self._context: Optional[NodeContext] = None
        #: value this node has irrevocably decided on, or ``None``
        self.decision: Optional[object] = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind(self, context: NodeContext) -> None:
        """Attach the simulator-provided context.  Called once before the run."""
        self._context = context

    @property
    def context(self) -> NodeContext:
        """The bound context; raises if the node is used outside a simulation."""
        if self._context is None:
            raise RuntimeError(f"node {self.node_id} is not bound to a simulator")
        return self._context

    @property
    def has_decided(self) -> bool:
        """Whether the node has reached its final decision."""
        return self.decision is not None

    # ------------------------------------------------------------------
    # convenience helpers available to subclasses
    # ------------------------------------------------------------------
    def send(self, dest: int, message: Message) -> None:
        """Send ``message`` to node ``dest``."""
        self.context.send(dest, message)

    def send_many(self, dests, message: Message) -> None:
        """Send the same ``message`` to every node in ``dests``, as one batch.

        The kernel accounts a multicast with a single grouped record, so this
        is the preferred way to fan a message out on hot paths.
        """
        self.context.send_many(dests, message)

    def send_plan(self, plan) -> None:
        """Send each ``(dests, message)`` multicast of ``plan``, in order.

        For a sequence of multicasts that several nodes send identically:
        handing over the one shared tuple lets the kernel validate and price
        it once for all of them.
        """
        self.context.send_plan(plan)

    def multicast(self, dests, message: Message) -> None:
        """Send the same ``message`` to every node in ``dests`` (a set/list of ids)."""
        self.context.send_many(dests, message)

    def decide(self, value: object) -> None:
        """Record the node's irrevocable decision (first call wins)."""
        if self.decision is None:
            self.decision = value

    # ------------------------------------------------------------------
    # protocol callbacks (overridden by subclasses)
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        """Called once at time zero, before any message is delivered."""

    def on_round(self, round_no: int) -> None:
        """Called at the beginning of every synchronous round (sync scheduler only)."""

    def on_message(self, sender: int, message: Message) -> None:
        """Called for every delivered message; ``sender`` is authenticated."""

    @classmethod
    def grouped_handlers(
        cls,
        nodes: List[Optional["Node"]],
        deliver_one: Callable[[int, int, Message], None],
    ) -> Dict[type, Callable[[int, tuple, Message], None]]:
        """Offer record-level handlers ``{message type: f(sender, dests, message)}``.

        The synchronous kernel asks once, at construction, and only when
        every correct node is of the class ``cls``; for a multicast record
        whose exact message type is offered it calls ``f`` once instead of
        ``on_message`` once per destination.  ``f`` must do what that loop
        does, in the same destination order: ``nodes`` is the id-indexed
        population (``None`` where the id is not a correct node), and
        ``deliver_one(dest, sender, message)`` is the kernel's own delivery
        to one destination — the only way to reach a destination without a
        node (a Byzantine id goes to ``adversary.on_deliver``).  Every
        destination of such a record is in ``range(len(nodes))``; the kernel
        does the receive accounting.  The default offers nothing.
        """
        return {}
