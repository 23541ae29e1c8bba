"""Outcome of a simulation run."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.net.metrics import MetricsSummary

#: the ``stopped_by`` values that mean a safety cap ended the run early
CAPS = ("max_events", "max_time", "max_rounds")


@dataclass(frozen=True)
class SimulationResult:
    """Everything a benchmark or test needs to know about a finished run.

    Attributes
    ----------
    n:
        System size.
    correct_ids / byzantine_ids:
        Partition of node identities into correct and adversary-controlled.
    decisions:
        ``{node_id: decided value}`` for the correct nodes that decided.
    rounds:
        Number of synchronous rounds executed (``None`` for async runs).
    span:
        Normalized completion time of an asynchronous run (``None`` for sync).
    metrics:
        The :class:`~repro.net.metrics.MetricsSummary` for the run, with
        per-node statistics restricted to correct nodes.
    metrics_all:
        Summary over *all* nodes (including Byzantine senders), used to
        check that adversarial traffic cannot be used to inflate the
        reported complexity of correct nodes.
    stopped_by:
        Why execution stopped: ``"decided"`` (every correct node decided),
        ``"quiescent"`` (nothing left in flight) or the safety cap that
        fired — ``"max_events"`` / ``"max_time"`` (async) or
        ``"max_rounds"`` (sync).  See :attr:`truncated`.
    """

    n: int
    correct_ids: List[int]
    byzantine_ids: List[int]
    decisions: Dict[int, object]
    rounds: Optional[int]
    span: Optional[float]
    metrics: MetricsSummary
    metrics_all: MetricsSummary
    stopped_by: str

    @property
    def truncated(self) -> Optional[str]:
        """The cap that cut this run short (one of :data:`CAPS`), else ``None``."""
        return self.stopped_by if self.stopped_by in CAPS else None

    @property
    def all_correct_decided(self) -> bool:
        """Whether every correct node reached a decision."""
        return all(node_id in self.decisions for node_id in self.correct_ids)

    def agreement_value(self) -> Optional[object]:
        """Return the common decision if all deciding correct nodes agree, else ``None``."""
        values = set(self.decisions.values())
        if len(values) == 1:
            return next(iter(values))
        return None

    @property
    def agreement_reached(self) -> bool:
        """True iff every correct node decided and they all decided the same value."""
        return self.all_correct_decided and self.agreement_value() is not None

    def fraction_decided(self, value: object) -> float:
        """Fraction of correct nodes whose decision equals ``value``."""
        if not self.correct_ids:
            return 0.0
        hits = sum(1 for i in self.correct_ids if self.decisions.get(i) == value)
        return hits / len(self.correct_ids)
