"""The event kernel — machinery shared by every scheduling discipline.

Both schedulers execute the same abstract machine: a set of correct
:class:`~repro.net.node.Node` objects, an optional adversary controlling the
remaining identities, a :class:`~repro.net.metrics.MetricsCollector`, and
per-node contexts that stamp the authenticated sender id on every message.
:class:`EventKernel` owns all of that — population wiring, message delivery
(single and batched), decision tracking and result assembly — so that
:class:`~repro.net.sync.SynchronousSimulator` and
:class:`~repro.net.asynchronous.AsynchronousSimulator` are reduced to thin
scheduling policies: *when* a dispatched message is delivered.

Hot-path design (the columnar fast path):

* a multicast enters the kernel as **one** grouped ``(sender, dests, message,
  bits)`` record via :meth:`EventKernel.dispatch_send_many`, so its metrics
  are a constant number of dict updates and the per-destination fan-out
  happens only at delivery time — inside the protocol's own record handler
  where it offers one (:meth:`~repro.net.node.Node.grouped_handlers`), in
  :meth:`EventKernel.deliver_batch`'s loop otherwise;
* a sequence of multicasts that several nodes send identically enters as a
  *plan* (:meth:`EventKernel.dispatch_plan`): the default is the loop over
  ``dispatch_send_many``, the synchronous scheduler validates and prices the
  plan once for all its senders;
* repeated payloads are **interned** (:meth:`EventKernel.intern_payload`):
  equal immutable messages dispatched by different senders collapse to one
  canonical object, so a round's inbox is a struct-of-arrays over a small
  set of shared payloads rather than N distinct Message tuples — and
  engine-level per-message memos can key on object identity;
* :meth:`EventKernel.deliver_batch` delivers a whole batch (e.g. one
  synchronous round's inbox) **columnarly**: per-node received counters are
  flat integer arrays indexed by node id (no dict churn on the inner loop),
  handlers are fetched from an id-indexed array, and the whole batch is
  flushed to the :class:`~repro.net.metrics.MetricsCollector` with one call
  (a record handed to a grouped handler is counted per record, not per
  destination: summed per distinct ``dests`` tuple, folded in once);
  decision tracking runs once per *touched* node after the batch (all
  deliveries of a batch share the same logical time, so decision timestamps
  are unchanged; within a batch they are recorded in node-id order).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Protocol, Sequence, Tuple

from repro.net.messages import Message, SizeModel
from repro.net.metrics import MetricsCollector
from repro.net.node import Node
from repro.net.results import SimulationResult
from repro.net.rng import DeterministicRNG, derive_rng
from repro.trace.collector import TraceCollector

#: safety bound on the payload intern table; overflow clears the table (a
#: pure memo — only re-canonicalisation is lost, never correctness)
_INTERN_LIMIT = 1 << 16


@contextmanager
def paused_gc():
    """Pause the cyclic garbage collector around a bounded event loop.

    A run allocates millions of container objects while its long-lived state
    (vote dicts, event buckets, intern tables) keeps growing, so the cyclic
    collector re-walks an ever larger survivor graph dozens of times per run
    for nothing: the only cycles a run creates are the kernel ↔ node ↔
    context web itself, which stays alive until the run ends anyway.
    Pausing collection for the duration of the loop removes that overhead
    (~25% wall-clock on the async benchmark); reference counting still
    reclaims all acyclic garbage immediately, and the deferred cycle sweep
    happens at the caller's next allocation burst after ``gc.enable()``.
    No-op when the collector is already disabled (e.g. nested runs of a
    composition, or an embedding application that manages GC itself).
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class SendRecord(NamedTuple):
    """A single message put on the wire (used for adversary observation and logs)."""

    sender: int
    dest: int
    message: Message
    time: float


class AdversaryProtocol(Protocol):
    """The interface the simulators require from an adversary implementation.

    The concrete adversary framework lives in :mod:`repro.adversary`; the
    simulators only rely on this narrow protocol so that tests can plug in
    trivial stand-ins.

    One optional read-only attribute is consulted besides the methods:
    ``watches_sends``.  The asynchronous scheduler un-groups a multicast into
    per-destination :class:`SendRecord` observations only for an adversary
    that watches sends; one whose ``watches_sends`` is false promises that
    its :meth:`observe_send` does nothing and its :meth:`delay_for` returns
    ``None``, and is never called on either.
    :class:`~repro.adversary.base.Adversary` derives the value from whether
    the subclass overrides one of the two hooks, so a user-defined adversary
    gets the right answer for free; an object without the attribute is
    treated as watching.
    """

    @property
    def byzantine_ids(self) -> frozenset:
        """Identities of the corrupted nodes (chosen non-adaptively, before the run)."""

    def bind(self, context: "AdversaryContext") -> None:
        """Attach the simulator-provided context before the run starts."""

    def on_start(self) -> None:
        """Called once at time zero."""

    def on_deliver(self, byz_id: int, sender: int, message: Message) -> None:
        """A message from ``sender`` reached the corrupted node ``byz_id``."""

    def on_round(self, round_no: int, observed: Optional[List[SendRecord]]) -> None:
        """Synchronous scheduler: the adversary's turn for this round.

        ``observed`` contains the messages the correct nodes send this round
        when the adversary is *rushing*, and ``None`` when it is non-rushing.
        """

    def observe_send(self, record: SendRecord) -> None:
        """Asynchronous scheduler: the adversary sees every message when it is sent."""

    def delay_for(self, record: SendRecord) -> Optional[float]:
        """Asynchronous scheduler: pick this message's delay in ``(0, 1]``.

        Returning ``None`` delegates the choice to the simulator's default
        delay policy.
        """


class AdversaryContext:
    """Capabilities granted to the adversary: send as any corrupted node."""

    def __init__(self, kernel: "EventKernel", rng: DeterministicRNG) -> None:
        self._kernel = kernel
        self.rng = rng

    @property
    def n(self) -> int:
        """System size."""
        return self._kernel.n

    def now(self) -> float:
        """Current simulation time."""
        return self._kernel.now()

    def send_as(self, byz_id: int, dest: int, message: Message) -> None:
        """Send ``message`` to ``dest`` with the (authentic) sender id ``byz_id``.

        Channels are authenticated (Section 2.1): even the adversary can only
        send under the identities it actually controls, which this method
        enforces.
        """
        if byz_id not in self._kernel.byzantine_ids:
            raise PermissionError(
                f"adversary tried to forge sender id {byz_id}, which it does not control"
            )
        self._kernel.dispatch_send(byz_id, dest, message)


class _NodeContext:
    """Concrete :class:`~repro.net.node.NodeContext` bound to one correct node."""

    def __init__(self, kernel: "EventKernel", node_id: int, rng: DeterministicRNG) -> None:
        self._kernel = kernel
        self._node_id = node_id
        self._rng = rng

    @property
    def node_id(self) -> int:
        return self._node_id

    @property
    def n(self) -> int:
        return self._kernel.n

    @property
    def rng(self) -> DeterministicRNG:
        return self._rng

    def now(self) -> float:
        return self._kernel.now()

    def send(self, dest: int, message: Message) -> None:
        if not 0 <= dest < self._kernel.n:
            raise ValueError(f"destination {dest} outside [0, {self._kernel.n})")
        self._kernel.dispatch_send(self._node_id, dest, message)

    def send_many(self, dests: Sequence[int], message: Message) -> None:
        kernel = self._kernel
        dests = kernel.checked_dests(dests)
        if dests:
            kernel.dispatch_send_many(self._node_id, dests, message)

    def send_plan(self, plan: Sequence[Tuple[Sequence[int], Message]]) -> None:
        self._kernel.dispatch_plan(self._node_id, plan)


class EventKernel:
    """Common state and machinery shared by both schedulers.

    Parameters
    ----------
    nodes:
        The correct protocol participants.  Their ``node_id`` attributes must
        be distinct and must not collide with the adversary's corrupted ids.
    n:
        Total system size (correct + Byzantine).
    adversary:
        Optional adversary; when omitted the run is failure-free, which is the
        setting in which the paper guarantees success deterministically
        ("unlike many randomized protocols, success is guaranteed when there
        is no Byzantine fault").
    seed:
        Master seed from which every node's private RNG, the adversary's RNG
        and the scheduler's RNG are derived.
    size_model:
        Bit-accounting model; defaults to ``SizeModel(n)``.
    trace:
        Optional :class:`~repro.trace.collector.TraceCollector`.  ``None``
        (the default) is the guaranteed-free disabled path: every probe site
        in the kernel and the schedulers is a single ``is not None`` check
        per *grouped* dispatch record, and nothing else changes — the golden
        equivalence tests pin byte-identical results.
    faults:
        Optional :class:`~repro.faults.FaultInjector`.  ``None`` (the
        default) is the same guaranteed-free contract as ``trace``: one
        ``is not None`` check per delivery batch / event, byte-identical
        results pinned by the golden matrix.  With an injector, deliveries
        it vetoes (down destination, partition cut, random loss) are
        silently dropped — dropped messages count as sent but never as
        received.
    """

    def __init__(
        self,
        nodes: Sequence[Node],
        n: int,
        adversary: Optional[AdversaryProtocol] = None,
        seed: int = 0,
        size_model: Optional[SizeModel] = None,
        trace: Optional[TraceCollector] = None,
        faults=None,
    ) -> None:
        self.n = n
        self.seed = seed
        self.adversary = adversary
        self.byzantine_ids: frozenset = (
            frozenset(adversary.byzantine_ids) if adversary is not None else frozenset()
        )
        self.nodes: Dict[int, Node] = {}
        for node in nodes:
            if node.node_id in self.byzantine_ids:
                raise ValueError(
                    f"node {node.node_id} is both a correct node and Byzantine"
                )
            if node.node_id in self.nodes:
                raise ValueError(f"duplicate node id {node.node_id}")
            self.nodes[node.node_id] = node
        self.correct_ids: List[int] = sorted(self.nodes)

        self.size_model = size_model or SizeModel(n)
        self.metrics = MetricsCollector(self.size_model)
        self.trace = trace
        if trace is not None:
            trace.bind_population(self.correct_ids, self.byzantine_ids)
            trace.bind_clock(self.now)
        self.faults = faults
        if faults is not None:
            faults.bind_population(self.correct_ids, self.byzantine_ids)
            if trace is not None:
                faults.bind_trace(trace)
        self._decided: Dict[int, bool] = {i: False for i in self.correct_ids}
        self._undecided_count = len(self.correct_ids)

        for node_id, node in self.nodes.items():
            rng = derive_rng(seed, "node", node_id)
            node.bind(_NodeContext(self, node_id, rng))
        if adversary is not None:
            adversary.bind(AdversaryContext(self, derive_rng(seed, "adversary")))
        # Columnar delivery state: handlers and node objects in id-indexed
        # arrays, so the delivery inner loop is two list indexings instead of
        # dict lookups.  ``_id_limit`` covers every known identity (correct
        # and Byzantine); destinations outside it — possible when a protocol
        # runs on a sub-population — take a spill-dict slow path.
        known = [n] + [i + 1 for i in self.nodes] + [i + 1 for i in self.byzantine_ids]
        self._id_limit: int = max(known)
        self._handler_list: List[Optional[object]] = [None] * self._id_limit
        self._node_list: List[Optional[Node]] = [None] * self._id_limit
        for node_id, node in self.nodes.items():
            if node_id >= 0:
                self._handler_list[node_id] = node.on_message
                self._node_list[node_id] = node
        # Record-level handlers the protocol offers (``Node.grouped_handlers``)
        # — asked for once, from a population of a single class.  A fault
        # injector filters per edge, so under one every record is fanned out
        # per destination.
        classes = {type(node) for node in self.nodes.values()}
        self._grouped: Dict[type, Callable[[int, tuple, Message], None]] = {}
        if len(classes) == 1 and faults is None:
            self._grouped = classes.pop().grouped_handlers(self._node_list, self._deliver_one)
        #: payload intern table: equal messages collapse to one canonical
        #: object (bounded; cleared wholesale on overflow, which only costs
        #: re-canonicalisation — interning is a pure memory/speed memo)
        self._intern: Dict[Message, Message] = {}

    # ------------------------------------------------------------------
    # hooks implemented by the scheduling policies
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Current simulation time (round number or event time)."""
        raise NotImplementedError

    def dispatch_send(self, sender: int, dest: int, message: Message) -> None:
        """Accept a message for (scheduler-specific) future delivery."""
        raise NotImplementedError

    def dispatch_send_many(self, sender: int, dests: Sequence[int], message: Message) -> None:
        """Accept one message for many destinations (a multicast).

        Schedulers override this with a batched implementation; the default
        simply dispatches per destination, which is always equivalent.
        """
        for dest in dests:
            self.dispatch_send(sender, dest, message)

    def checked_dests(self, dests: Sequence[int]) -> Sequence[int]:
        """``dests`` as a tuple or list whose every member is in ``[0, n)``."""
        if not isinstance(dests, (tuple, list)):
            dests = tuple(dests)  # tolerate sets/generators, as multicast always did
        if dests and (min(dests) < 0 or max(dests) >= self.n):
            raise ValueError(f"destination outside [0, {self.n}) in {dests!r}")
        return dests

    def dispatch_plan(self, sender: int, plan: Sequence[Tuple[Sequence[int], Message]]) -> None:
        """Accept a sequence of ``(dests, message)`` multicasts from ``sender``.

        A *plan* is what several senders put on the wire identically (the d
        proxies of one pull request): the same multicasts in the same order.
        The default is the loop over :meth:`dispatch_send_many`, which is
        always equivalent; a scheduler that can do a plan's per-multicast
        work once for all its senders overrides it.
        """
        for dests, message in plan:
            dests = self.checked_dests(dests)
            if dests:
                self.dispatch_send_many(sender, dests, message)

    def run(self) -> SimulationResult:
        """Execute the protocol to completion and return the result."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def intern_payload(self, message: Message) -> Message:
        """Return the canonical object for ``message`` (payload interning).

        Equal immutable messages dispatched by different senders — the d
        copies of an ``Fw1`` created by every member of one pull quorum, the
        push multicasts of every knowledgeable node — collapse to a single
        shared object, which (a) frees their duplicates immediately and (b)
        lets engine-level memos key pure per-message facts on object
        identity.  Interning never changes behaviour: messages are frozen
        dataclasses compared by value everywhere.
        """
        intern = self._intern
        canonical = intern.get(message)
        if canonical is not None:
            return canonical
        if len(intern) >= _INTERN_LIMIT:
            intern.clear()
        intern[message] = message
        return message

    def _deliver_one(self, dest: int, sender: int, message: Message) -> None:
        """Hand ``message`` to whoever lives at ``dest`` (no accounting).

        The per-destination step of :meth:`deliver_batch`, for the grouped
        handlers' use: a correct node's ``on_message``, the adversary's
        ``on_deliver`` for a corrupted id, nobody otherwise.
        """
        handler = self._handler_list[dest]
        if handler is not None:
            handler(sender, message)
        elif self.adversary is not None and dest in self.byzantine_ids:
            self.adversary.on_deliver(dest, sender, message)

    def deliver_batch(self, batch: Iterable[Tuple[int, Sequence[int], Message, int]]) -> None:
        """Deliver a batch of grouped ``(sender, dests, message, bits)`` records.

        Per-destination delivery order is exactly the dispatch order; only
        the metrics accumulation and the decision bookkeeping are batched.
        The accumulation is columnar: received message/bit counters live in
        flat integer arrays indexed by destination id (destinations outside
        the known id range spill to a dict), the whole batch is flushed to
        the collector with one call, and each *touched* correct node's
        decision is recorded once at the end of the batch in node-id order
        (all deliveries of a batch share the same logical time, so decision
        timestamps are identical to per-message tracking).

        A multicast whose message type the protocol offered a grouped
        handler for (:meth:`Node.grouped_handlers`) is handed over whole:
        the handler walks the destinations, and the record's receive
        counters are summed per distinct ``dests`` tuple (the sampler tables
        hand out one cached tuple per quorum) and folded into the arrays
        once, after the loop — commutative sums, so exact.  Everything else
        is fanned out here, per destination: other message types, the
        single-destination records of ``dispatch_send`` (the only ones whose
        destination nobody validated), every record under a fault injector
        and every record of a mixed population.
        """
        limit = self._id_limit
        recv_msgs = [0] * limit
        recv_bits = [0] * limit
        handlers = self._handler_list
        grouped = self._grouped
        adversary = self.adversary
        byzantine = self.byzantine_ids
        faults = self.faults
        now = self.now() if faults is not None else 0.0
        spill: Optional[Dict[int, List[int]]] = None
        #: id(dests) -> [dests, records, bits] of the records handed over
        #: whole (the entry holds the tuple, so its id cannot be recycled)
        handed: Dict[int, list] = {}
        for sender, dests, message, bits in batch:
            if grouped and len(dests) > 1:
                group_handler = grouped.get(type(message))
                if group_handler is not None:
                    tally = handed.get(id(dests))
                    if tally is None:
                        handed[id(dests)] = [dests, 1, bits]
                    else:
                        tally[1] += 1
                        tally[2] += bits
                    group_handler(sender, dests, message)
                    continue
            if faults is not None:
                # injected drops: filter the fan-out before delivery (dropped
                # messages were counted as sent, never as received)
                dests = [d for d in dests if not faults.should_drop(sender, d, now)]
            for dest in dests:
                if 0 <= dest < limit:
                    recv_msgs[dest] += 1
                    recv_bits[dest] += bits
                    handler = handlers[dest]
                    if handler is not None:
                        handler(sender, message)
                    elif adversary is not None and dest in byzantine:
                        adversary.on_deliver(dest, sender, message)
                else:
                    # out-of-population destination: counted (as always),
                    # delivered to nobody
                    if spill is None:
                        spill = {}
                    entry = spill.get(dest)
                    if entry is None:
                        spill[dest] = [1, bits]
                    else:
                        entry[0] += 1
                        entry[1] += bits
        for dests, records, bits in handed.values():
            for dest in dests:
                recv_msgs[dest] += records
                recv_bits[dest] += bits
        counts = [(d, recv_msgs[d], recv_bits[d]) for d in range(limit) if recv_msgs[d]]
        if spill:
            counts.extend((d, e[0], e[1]) for d, e in spill.items())
        self.metrics.record_delivery_batch(counts)
        decided = self._decided
        nodes = self.nodes
        for dest, _msgs, _bits in counts:
            if dest in nodes and not decided[dest]:
                self.note_decisions(dest)

    # ------------------------------------------------------------------
    # decision tracking and result assembly
    # ------------------------------------------------------------------
    def note_decisions(self, node_id: int) -> None:
        """Record the decision time of ``node_id`` if it has just decided."""
        if not self._decided.get(node_id) and self.nodes[node_id].has_decided:
            self._decided[node_id] = True
            self._undecided_count -= 1
            self.metrics.record_decision(node_id, self.now())
            if self.trace is not None:
                self.trace.on_decided(node_id, self.now())

    def all_decided(self) -> bool:
        """Whether every correct node has decided."""
        return self._undecided_count == 0

    def build_result(
        self, rounds: Optional[int], span: Optional[float], stopped_by: str
    ) -> SimulationResult:
        """Assemble the :class:`SimulationResult` once execution has stopped."""
        decisions = {
            node_id: node.decision
            for node_id, node in self.nodes.items()
            if node.has_decided
        }
        return SimulationResult(
            n=self.n,
            correct_ids=list(self.correct_ids),
            byzantine_ids=sorted(self.byzantine_ids),
            decisions=decisions,
            rounds=rounds,
            span=span,
            metrics=self.metrics.summary(restrict_to=self.correct_ids),
            metrics_all=self.metrics.summary(),
            stopped_by=stopped_by,
        )
