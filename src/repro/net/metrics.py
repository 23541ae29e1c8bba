"""Per-node and aggregate communication/time accounting.

The paper reports (Figure 1, Lemmas 3-10):

* *amortized communication complexity*: total bits exchanged divided by ``n``;
* *per-node worst case*: the maximum bits any single node sends/receives,
  which is what distinguishes a load-balanced protocol (KLST11) from AER;
* *time complexity*: rounds in the synchronous model, normalized delay units
  in the asynchronous model.

:class:`MetricsCollector` records every send and delivery as the simulators
execute, and :class:`MetricsSummary` condenses them into exactly the
quantities the benchmarks print.

Accounting is batched for speed: counters live in flat ``{node_id: int}``
dicts (no per-message object churn), the bit cost of a message is computed
once and memoised (protocol messages are immutable and frequently multicast),
and the event kernel can record a whole multicast or delivery batch with a
single call.  :class:`NodeTraffic` views are materialised on demand.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.net.messages import Message, SizeModel

#: safety bound on the memoised message-cost cache (entries are tiny; the cap
#: only matters for pathological runs with millions of distinct messages).
#: When full, the oldest *insertion* is evicted (FIFO — hits do not refresh
#: recency, keeping the hot lookup a single dict get): one pop per insert,
#: never the old clear-everything reset that dropped the whole memo at once.
_BITS_CACHE_LIMIT = 1 << 20


@dataclass
class NodeTraffic:
    """Raw traffic counters for a single node."""

    sent_messages: int = 0
    sent_bits: int = 0
    received_messages: int = 0
    received_bits: int = 0

    @property
    def total_bits(self) -> int:
        """Bits this node both sent and received (the paper's per-node load)."""
        return self.sent_bits + self.received_bits


@dataclass(frozen=True)
class MetricsSummary:
    """Aggregated view of a finished run, in the paper's units.

    Attributes
    ----------
    n:
        System size.
    total_messages / total_bits:
        Sums over all nodes (each message counted once, at the sender).
    amortized_bits:
        ``total_bits / n`` — the paper's amortized communication complexity.
    max_node_bits / median_node_bits / mean_node_bits:
        Distribution of per-node load (sent + received bits).
    load_imbalance:
        ``max_node_bits / max(1, median_node_bits)`` — the quantity behind the
        "Load-Balanced: Yes/No" row of Figure 1a.
    rounds:
        Number of synchronous rounds executed (``None`` for async runs).
    span:
        Normalized asynchronous completion time (``None`` for sync runs).
    decision_times:
        Per-node time (round or normalized time) at which each correct node
        decided; empty for protocols without a decision step.
    """

    n: int
    total_messages: int
    total_bits: int
    amortized_bits: float
    max_node_bits: int
    median_node_bits: float
    mean_node_bits: float
    load_imbalance: float
    rounds: Optional[int]
    span: Optional[float]
    decision_times: Dict[int, float]
    per_node_bits: Dict[int, int]

    @staticmethod
    def from_loads(
        n: int,
        total_messages: int,
        total_bits: int,
        per_node_bits: Dict[int, int],
        decision_times: Dict[int, float],
        rounds: Optional[int],
        span: Optional[float],
    ) -> "MetricsSummary":
        """The one place the load statistics are derived.

        ``total_messages`` / ``total_bits`` cover every sender;
        ``per_node_bits`` and ``decision_times`` cover the nodes the
        statistics are about (all of ``[0, n)``, or the correct ones).
        """
        loads = list(per_node_bits.values()) or [0]
        median_load = statistics.median(loads)
        max_load = max(loads)
        return MetricsSummary(
            n=n,
            total_messages=total_messages,
            total_bits=total_bits,
            amortized_bits=total_bits / max(1, n),
            max_node_bits=max_load,
            median_node_bits=median_load,
            mean_node_bits=statistics.fmean(loads),
            load_imbalance=max_load / max(1.0, median_load),
            rounds=rounds,
            span=span,
            decision_times=decision_times,
            per_node_bits=per_node_bits,
        )

    @property
    def max_decision_time(self) -> Optional[float]:
        """Latest decision time among correct nodes, or ``None`` if nobody decided."""
        if not self.decision_times:
            return None
        return max(self.decision_times.values())

    def row(self) -> Dict[str, float]:
        """Return the summary as a flat dict convenient for tabular printing."""
        return {
            "n": self.n,
            "total_messages": self.total_messages,
            "total_bits": self.total_bits,
            "amortized_bits": round(self.amortized_bits, 2),
            "max_node_bits": self.max_node_bits,
            "median_node_bits": round(self.median_node_bits, 2),
            "load_imbalance": round(self.load_imbalance, 2),
            "rounds": self.rounds if self.rounds is not None else -1,
            "span": round(self.span, 3) if self.span is not None else -1,
            "max_decision_time": (
                round(self.max_decision_time, 3)
                if self.max_decision_time is not None
                else -1
            ),
        }


class MetricsCollector:
    """Records traffic and timing events during a simulation run.

    The collector is deliberately dumb: the simulators call the ``record_*``
    methods and everything else is derived lazily in :meth:`summary`.  The
    batched variants (:meth:`record_send_many`,
    :meth:`record_delivery_batch`) fold a whole multicast or delivery sweep
    into a constant number of dict updates.
    """

    def __init__(self, size_model: SizeModel, bits_cache_limit: int = _BITS_CACHE_LIMIT) -> None:
        self.size_model = size_model
        self._sent_messages: Dict[int, int] = {}
        self._sent_bits: Dict[int, int] = {}
        self._received_messages: Dict[int, int] = {}
        self._received_bits: Dict[int, int] = {}
        self._bits_cache: Dict[Message, int] = {}
        self._bits_cache_limit = max(1, bits_cache_limit)
        self._decision_times: Dict[int, float] = {}
        self._rounds: Optional[int] = None
        self._span: Optional[float] = None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def bits_of(self, message: Message) -> int:
        """Bit cost of ``message``, memoised (messages are immutable).

        The memo is bounded: when full, the oldest *insertion* is evicted
        (FIFO — dicts iterate in insertion order, so ``next(iter(...))`` is
        the earliest-inserted entry; hits deliberately do not refresh
        recency, which keeps this hot path a single dict get).  A run with
        millions of distinct messages therefore holds at most
        ``bits_cache_limit`` entries at any time and evicts one entry per
        insert, instead of the old clear-everything reset.  A flood larger
        than the cache can still cycle out a long-lived entry (it is
        recomputed on next use); what is gone is the global reset that
        dropped every entry at once.
        """
        cache = self._bits_cache
        bits = cache.get(message)
        if bits is None:
            bits = message.bits(self.size_model)
            if len(cache) >= self._bits_cache_limit:
                del cache[next(iter(cache))]
            cache[message] = bits
        return bits

    @property
    def bits_cache_size(self) -> int:
        """Current number of memoised message costs (bounded by the limit)."""
        return len(self._bits_cache)

    def record_send(self, sender: int, message: Message) -> int:
        """Record ``sender`` putting ``message`` on the wire towards one node.

        Returns the bit cost charged, so the caller can reuse it for the
        matching delivery record.
        """
        bits = self.bits_of(message)
        sent_messages = self._sent_messages
        sent_messages[sender] = sent_messages.get(sender, 0) + 1
        sent_bits = self._sent_bits
        sent_bits[sender] = sent_bits.get(sender, 0) + bits
        return bits

    def record_send_many(self, sender: int, dests: Sequence[int], message: Message) -> int:
        """Record a multicast of ``message`` to every node in ``dests`` in one step.

        Equivalent to calling :meth:`record_send` once per destination.
        Returns the per-message bit cost.
        """
        bits = self.bits_of(message)
        count = len(dests)
        sent_messages = self._sent_messages
        sent_messages[sender] = sent_messages.get(sender, 0) + count
        sent_bits = self._sent_bits
        sent_bits[sender] = sent_bits.get(sender, 0) + count * bits
        return bits

    def record_sends(self, sender: int, messages: int, bits: int) -> None:
        """Record ``sender`` sending ``messages`` messages of ``bits`` bits in total.

        For multicasts priced ahead of time (a prepared send plan).
        """
        sent_messages = self._sent_messages
        sent_messages[sender] = sent_messages.get(sender, 0) + messages
        sent_bits = self._sent_bits
        sent_bits[sender] = sent_bits.get(sender, 0) + bits

    def record_delivery(self, dest: int, bits: int) -> None:
        """Record ``dest`` receiving a message of the given bit cost."""
        received_messages = self._received_messages
        received_messages[dest] = received_messages.get(dest, 0) + 1
        received_bits = self._received_bits
        received_bits[dest] = received_bits.get(dest, 0) + bits

    def record_delivery_batch(self, counts: Iterable[Tuple[int, int, int]]) -> None:
        """Record a batch of deliveries as ``(dest, message_count, total_bits)`` triples."""
        received_messages = self._received_messages
        received_bits = self._received_bits
        for dest, messages, bits in counts:
            received_messages[dest] = received_messages.get(dest, 0) + messages
            received_bits[dest] = received_bits.get(dest, 0) + bits

    def record_decision(self, node_id: int, time: float) -> None:
        """Record the (first) time at which ``node_id`` decided."""
        self._decision_times.setdefault(node_id, time)

    def record_rounds(self, rounds: int) -> None:
        """Record the number of synchronous rounds the run took."""
        self._rounds = rounds

    def record_span(self, span: float) -> None:
        """Record the normalized completion time of an asynchronous run."""
        self._span = span

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def traffic_of(self, node_id: int) -> NodeTraffic:
        """Return the raw counters for one node (zeros if it never communicated)."""
        return NodeTraffic(
            sent_messages=self._sent_messages.get(node_id, 0),
            sent_bits=self._sent_bits.get(node_id, 0),
            received_messages=self._received_messages.get(node_id, 0),
            received_bits=self._received_bits.get(node_id, 0),
        )

    def _total_bits_of(self, node_id: int) -> int:
        return self._sent_bits.get(node_id, 0) + self._received_bits.get(node_id, 0)

    def summary(self, restrict_to: Optional[List[int]] = None) -> MetricsSummary:
        """Condense the recorded events into a :class:`MetricsSummary`.

        Parameters
        ----------
        restrict_to:
            When given, per-node statistics (max/median/mean load, decision
            times) are computed over these nodes only — the benchmarks use
            this to report the load of *correct* nodes, as the paper does.
            Totals (total bits/messages) always cover the whole system.
        """
        n = self.size_model.n
        if restrict_to is None:
            node_ids = list(range(n))
            decisions = dict(self._decision_times)
        else:
            node_ids = list(restrict_to)
            keep = set(node_ids)
            decisions = {i: t for i, t in self._decision_times.items() if i in keep}
        return MetricsSummary.from_loads(
            n,
            total_messages=sum(self._sent_messages.values()),
            total_bits=sum(self._sent_bits.values()),
            per_node_bits={i: self._total_bits_of(i) for i in node_ids},
            decision_times=decisions,
            rounds=self._rounds,
            span=self._span,
        )
