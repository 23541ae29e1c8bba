"""The worker loop: claim a lease, run the spec, stream the record back.

:func:`run_worker` is the client half of the distributed executor — what
``python -m repro dist-worker HOST:PORT`` runs, and what the in-process
worker threads of :func:`~repro.dist.launch.run_distributed_sweep` run for
tests.  The loop is deliberately dumb:

1. ``hello`` (the coordinator refuses stale code by name, on every request);
2. ``claim`` — on ``wait`` sleep and retry, on ``drained`` exit;
3. execute the spec through the exact same
   :func:`~repro.experiments.sweep.execute_spec` path a local sweep uses
   (so a distributed record is byte-for-byte a local record), while a
   background thread heartbeats the lease;
4. ``complete`` and go to 2.

A worker keeps running after its lease expired mid-spec (a long spec on a
slow host): the completion is still submitted, and the coordinator's
first-wins rule decides whether it counts or is a discarded duplicate.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.dist.protocol import (
    Address,
    CoordinatorClient,
    ProtocolError,
    default_worker_id,
)
from repro.experiments.plan import ExperimentSpec
from repro.experiments.sweep import execute_spec


def _heartbeat(
    client: CoordinatorClient, lease: str, interval: float, stop: threading.Event
) -> None:
    """Extend ``lease`` every ``interval`` seconds until ``stop`` is set.

    ``client`` is a connection of its own (the main one waits inside the
    spec's execution).  An expired lease or a failed beat ends the beats:
    the shard may run elsewhere, and the main loop finds out about a dead
    coordinator on ``complete``.
    """
    with client:
        while not stop.wait(interval):
            try:
                if not client.heartbeat(lease):
                    return
            except (OSError, ProtocolError):
                return


def run_worker(
    address: Address,
    worker_id: Optional[str] = None,
    fingerprint: Optional[str] = None,
    poll_interval: float = 0.5,
    heartbeat_interval: Optional[float] = None,
    max_claims: Optional[int] = None,
) -> int:
    """Claim and execute shards until the coordinator drains; returns the
    number of specs this worker executed.

    ``poll_interval`` caps how long the worker sleeps on a ``wait`` reply;
    ``heartbeat_interval`` defaults to a third of the coordinator's lease
    timeout; ``max_claims`` bounds the loop (tests and scale-down).

    Raises :class:`~repro.dist.protocol.WorkerRejectedError` when the
    coordinator refuses this worker's fingerprint — a stale-code worker
    must never compute records for a coordinator running different code.
    """
    worker = worker_id or default_worker_id()
    client = CoordinatorClient(address, worker=worker, fingerprint=fingerprint)
    executed = 0
    try:
        welcome = client.hello()
        if heartbeat_interval is None:
            heartbeat_interval = float(welcome.get("lease_timeout", 30.0)) / 3.0
        while max_claims is None or executed < max_claims:
            try:
                reply = client.claim()
            except (OSError, ProtocolError):
                break  # coordinator gone (drained and closed); we are done
            if reply["type"] == "drained":
                break
            if reply["type"] == "wait":
                time.sleep(
                    min(float(reply.get("retry_after", poll_interval)), poll_interval)
                )
                continue
            spec = ExperimentSpec.from_dict(reply["spec"])  # type: ignore[arg-type]
            lease = str(reply["lease"])
            beats = CoordinatorClient(
                address, worker=worker, fingerprint=client.fingerprint
            )
            stop = threading.Event()
            heartbeat = threading.Thread(
                target=_heartbeat,
                args=(beats, lease, max(0.05, heartbeat_interval), stop),
                name=f"repro-dist-heartbeat-{lease}",
                daemon=True,
            )
            heartbeat.start()
            try:
                record = execute_spec(spec)
            finally:
                stop.set()
                heartbeat.join(timeout=5.0)
            executed += 1
            try:
                client.complete(lease, int(reply["index"]), record.to_dict())
            except (OSError, ProtocolError):
                break  # coordinator closed between our claim and completion
    finally:
        client.close()
    return executed
