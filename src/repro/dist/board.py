"""The lease state machine behind the coordinator: spec-keyed shard claiming.

A :class:`ShardBoard` owns a sequence of specs as indexed shards and hands
them out under **leases**: a claim moves a shard ``pending → leased`` with a
deadline; heartbeats push the deadline forward; a shard whose deadline
lapses is re-issued to the next claimer (at-least-once execution).
Completions are first-wins per shard — a late completion from an expired
lease is still accepted if nobody else finished the shard first, and a
*second* completion is acknowledged but discarded (exactly-once results).

The board is pure bookkeeping — no sockets, no records, no store — and
takes an injectable ``clock``, so every lease race (expiry, re-issue,
duplicate completion) is testable deterministically without sleeping.  All
methods are thread-safe; the HTTP handler threads of
:class:`~repro.dist.coordinator.DistCoordinator` call straight into it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments.plan import ExperimentSpec

#: default lease lifetime; heartbeats are expected every third of this
DEFAULT_LEASE_TIMEOUT = 30.0

#: shard lifecycle states
PENDING, LEASED, DONE = "pending", "leased", "done"


@dataclass
class Shard:
    """One unit of claimable work: a slot, its spec and its lease."""

    index: int
    spec: ExperimentSpec
    spec_key: str
    state: str = PENDING
    lease_id: Optional[str] = None
    worker: Optional[str] = None
    deadline: float = 0.0
    #: how many times this shard has been issued (>1 means re-issue)
    attempts: int = 0


@dataclass
class ClaimResult:
    """What :meth:`ShardBoard.claim` returns: one of three outcomes."""

    kind: str  # "lease" | "wait" | "drained"
    shard: Optional[Shard] = None
    retry_after: float = 0.0


@dataclass
class BoardCounters:
    """Race bookkeeping surfaced through the coordinator's status."""

    expired_leases: int = 0
    duplicate_completions: int = 0
    #: accepted fresh completions per worker id
    completed_by: Dict[str, int] = field(default_factory=dict)


class ShardBoard:
    """Thread-safe lease-based claiming over a sequence of indexed specs."""

    def __init__(
        self,
        specs: Sequence[ExperimentSpec],
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        from repro.store.keys import spec_key

        self.lease_timeout = float(lease_timeout)
        self.clock = clock or time.monotonic
        self.shards: List[Shard] = [
            Shard(index=i, spec=spec, spec_key=spec_key(spec))
            for i, spec in enumerate(specs)
        ]
        self.counters = BoardCounters()
        self._lock = threading.Lock()
        self._lease_seq = 0

    # ------------------------------------------------------------------
    # the lease protocol
    # ------------------------------------------------------------------
    def claim(self, worker: str) -> ClaimResult:
        """Issue the first pending (or expired-lease) shard, in index order."""
        with self._lock:
            now = self.clock()
            earliest: Optional[float] = None
            for shard in self.shards:
                if shard.state == PENDING or (
                    shard.state == LEASED and shard.deadline <= now
                ):
                    if shard.state == LEASED:
                        self.counters.expired_leases += 1
                    self._lease_seq += 1
                    shard.state = LEASED
                    shard.lease_id = f"L{self._lease_seq:05d}"
                    shard.worker = worker
                    shard.deadline = now + self.lease_timeout
                    shard.attempts += 1
                    return ClaimResult(kind="lease", shard=shard)
                if shard.state == LEASED:
                    earliest = (
                        shard.deadline
                        if earliest is None
                        else min(earliest, shard.deadline)
                    )
            if earliest is None:  # nothing pending, nothing leased
                return ClaimResult(kind="drained")
            retry = max(0.05, min(earliest - now, 1.0))
            return ClaimResult(kind="wait", retry_after=retry)

    def heartbeat(self, lease_id: str) -> bool:
        """Extend a live lease's deadline; ``False`` once it already lapsed."""
        with self._lock:
            now = self.clock()
            for shard in self.shards:
                if shard.state == LEASED and shard.lease_id == lease_id:
                    if shard.deadline <= now:
                        return False
                    shard.deadline = now + self.lease_timeout
                    return True
            return False

    def complete(self, index: int, worker: str = "?") -> bool:
        """Mark a shard finished (first-wins); ``False`` for duplicates.

        A completion from an *expired* lease is still accepted when the
        shard is not yet done — the record is a pure function of the spec,
        so whichever attempt finishes first is as good as any other
        (at-least-once execution, exactly-once results).
        """
        with self._lock:
            shard = self.shards[index]
            if shard.state == DONE:
                self.counters.duplicate_completions += 1
                return False
            shard.state = DONE
            shard.worker = worker
            self.counters.completed_by[worker] = (
                self.counters.completed_by.get(worker, 0) + 1
            )
            return True

    # ------------------------------------------------------------------
    # progress
    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        with self._lock:
            return all(shard.state == DONE for shard in self.shards)

    def counts(self) -> Dict[str, int]:
        with self._lock:
            by_state = {PENDING: 0, LEASED: 0, DONE: 0}
            for shard in self.shards:
                by_state[shard.state] += 1
            return {"total": len(self.shards), **by_state}
