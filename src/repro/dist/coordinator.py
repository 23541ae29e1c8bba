"""The sweep coordinator: an HTTP server issuing spec-keyed shard leases.

A :class:`DistCoordinator` wraps a :class:`~repro.dist.board.ShardBoard` in
the experiment service's HTTP server, answering the routes listed in
:mod:`repro.dist.protocol` (``repro.service.app.DIST_ROUTES``).  It is
given the specs that still need *executing* —
:class:`~repro.dist.launch.DistExecutor` hands it the pending delta of a
:meth:`SweepRunner.run <repro.experiments.sweep.SweepRunner.run>` — and
owns only what is distributed about them:

1. :meth:`start` binds the socket (port ``0`` = ephemeral) and workers
   hello/claim/heartbeat/complete against the board, each request refused
   (403) unless it carries the coordinator's code fingerprint;
2. a ``complete`` request is checked (index on the board, record answers that
   shard's spec) and accepted first-wins — duplicates are discarded here,
   before anything downstream sees them;
3. every accepted ``(index, record)`` is handed to the one consumer of
   :meth:`completions`, and the worker's ack is held back until that
   consumer comes back for the next one — i.e. until the sweep path has
   flushed the record — so ``accepted: true`` means *durable*.

Live coordinators register themselves in a process-local registry so the
experiment service can surface their status (``GET /dist/coordinators``)
without holding references; ``total`` there counts the shards of the
pending delta, not the plan.
"""

from __future__ import annotations

import queue
import threading
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Tuple, TYPE_CHECKING,
)

from repro.dist.board import DEFAULT_LEASE_TIMEOUT, ShardBoard
from repro.experiments.plan import ExperimentSpec
from repro.experiments.sweep import ExperimentRecord
from repro.store.keys import code_fingerprint, spec_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.app import ServiceServer

#: process-local registry of live coordinators (service status endpoint)
_ACTIVE: Dict[int, "DistCoordinator"] = {}
_ACTIVE_LOCK = threading.Lock()


def active_coordinators() -> List[Dict[str, object]]:
    """Status snapshots of every live coordinator in this process."""
    with _ACTIVE_LOCK:
        coordinators = list(_ACTIVE.values())
    return [coordinator.status() for coordinator in coordinators]


class DistCoordinator:
    """Serve a sequence of specs to HTTP workers under leases.

    Parameters
    ----------
    specs:
        The specs to execute, already validated; shard ``i`` is ``specs[i]``.
    lease_timeout:
        Seconds before an unheartbeated lease expires and its shard is
        re-issued.
    clock:
        Injectable monotonic clock for the lease state machine (tests).
    fingerprint:
        Code identity workers must match; defaults to
        :func:`repro.store.keys.code_fingerprint`.
    """

    def __init__(
        self,
        specs: Sequence[ExperimentSpec],
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        host: str = "127.0.0.1",
        port: int = 0,
        clock: Optional[Callable[[], float]] = None,
        fingerprint: Optional[str] = None,
    ) -> None:
        self.fingerprint = fingerprint or code_fingerprint()
        self.board = ShardBoard(specs, lease_timeout=lease_timeout, clock=clock)
        self._host, self._port = host, port
        self._server: Optional["ServiceServer"] = None
        self._workers_seen: Dict[str, int] = {}
        self._lock = threading.Lock()
        #: accepted ``(index, record, flushed-event)`` awaiting the consumer
        self._accepted: "queue.Queue[tuple]" = queue.Queue()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Bind the socket and serve claims; returns ``(host, port)``."""
        if self._server is not None:
            return self.address
        # http.server loads here, not with ``import repro.api``
        from repro.service.app import DIST_ROUTES, ServiceServer

        self._server = ServiceServer((self._host, self._port), DIST_ROUTES, self).start()
        with _ACTIVE_LOCK:
            _ACTIVE[id(self)] = self
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None:
            raise RuntimeError("coordinator is not started")
        return self._server.server_address[0], self._server.server_address[1]

    def close(self) -> None:
        """Stop serving (idempotent); the board stays readable."""
        with _ACTIVE_LOCK:
            _ACTIVE.pop(id(self), None)
        server, self._server = self._server, None
        if server is not None:
            server.close()

    def __enter__(self) -> "DistCoordinator":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # request-level operations (called by handler threads)
    # ------------------------------------------------------------------
    def refusal(self, worker: str, fingerprint: str) -> Optional[str]:
        """Why ``worker`` is refused (both fingerprints named), or ``None``."""
        if fingerprint == self.fingerprint:
            return None
        return (
            f"code fingerprint mismatch: worker {worker!r} runs "
            f"{fingerprint!r} but the coordinator expects "
            f"{self.fingerprint!r} — update the worker's checkout to "
            f"the coordinator's code before claiming shards"
        )

    def handshake(self, worker: str) -> Dict[str, object]:
        with self._lock:
            self._workers_seen[worker] = self._workers_seen.get(worker, 0) + 1
        return {
            "type": "welcome",
            "worker": worker,
            "total": len(self.board.shards),
            "lease_timeout": self.board.lease_timeout,
        }

    def claim(self, worker: str) -> Dict[str, object]:
        claim = self.board.claim(worker)
        if claim.kind == "drained":
            return {"type": "drained"}
        if claim.kind == "wait":
            return {"type": "wait", "retry_after": claim.retry_after}
        shard = claim.shard
        assert shard is not None
        return {
            "type": "lease",
            "lease": shard.lease_id,
            "index": shard.index,
            "spec_key": shard.spec_key,
            "spec": shard.spec.to_dict(),
            "lease_timeout": self.board.lease_timeout,
            "attempt": shard.attempts,
        }

    def complete(
        self, index: int, record_data: Dict[str, object], worker: str = "?"
    ) -> bool:
        """Accept a worker's record first-wins; ``False`` for a duplicate.

        Raises ``ValueError`` for an index off the board or a record whose
        spec is not the shard's.  An accepted completion returns only once
        the consumer of :meth:`completions` is done with the record, so the
        worker's ack follows the flush.
        """
        shards = self.board.shards
        if not 0 <= index < len(shards):
            raise ValueError(f"no shard {index} on a board of {len(shards)}")
        record = ExperimentRecord.from_dict(record_data)
        if spec_key(record.spec) != shards[index].spec_key:
            raise ValueError(
                f"record of spec {record.spec.key!r} does not answer shard "
                f"{index} ({shards[index].spec.key!r})"
            )
        if not self.board.complete(index, worker=worker):
            return False
        flushed = threading.Event()
        self._accepted.put((index, record, flushed))
        flushed.wait()
        return True

    def completions(
        self, idle: Optional[Callable[[], None]] = None
    ) -> Iterator[Tuple[int, ExperimentRecord]]:
        """Yield each accepted ``(index, record)`` once, in arrival order,
        until every shard is done (single consumer).

        Resuming the generator releases the handler thread that delivered
        the previous record.  ``idle()`` runs whenever 0.1 s pass without a
        completion — the local worker supervisor's hook; whatever it raises
        ends the iteration.
        """
        for _ in self.board.shards:
            while True:
                try:
                    index, record, flushed = self._accepted.get(timeout=0.1)
                    break
                except queue.Empty:
                    if idle is not None:
                        idle()
            yield index, record
            flushed.set()

    def status(self) -> Dict[str, object]:
        """JSON-safe progress snapshot (the service's ``/dist`` payload)."""
        with self._lock:
            workers = dict(self._workers_seen)
        address = None
        if self._server is not None:
            host, port = self.address
            address = f"{host}:{port}"
        return {
            "address": address,
            "fingerprint": self.fingerprint,
            "lease_timeout": self.board.lease_timeout,
            "finished": self.board.finished,
            "workers": workers,
            "expired_leases": self.board.counters.expired_leases,
            "duplicate_completions": self.board.counters.duplicate_completions,
            "completed_by": dict(self.board.counters.completed_by),
            **self.board.counts(),
        }
