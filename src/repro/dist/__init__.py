"""Distributed sweep executor: multi-host shard claiming for the sweep path.

:class:`~repro.dist.launch.DistExecutor` is the third executor of
:meth:`SweepRunner.run <repro.experiments.sweep.SweepRunner.run>` (next to
the inline loop and the ``multiprocessing`` pool): handed the specs the
store could not serve, it starts a
:class:`~repro.dist.coordinator.DistCoordinator` that shards them into
**spec-keyed work units** — the same content-addressed keys the result
store uses — and serves them to workers as JSON routes on the experiment
service's stdlib HTTP handler (no new dependency).  A
worker (``python -m repro dist-worker HOST:PORT``) claims a lease, runs the
spec through the existing :func:`~repro.experiments.sweep.execute_spec`
path and streams the finished
:class:`~repro.experiments.sweep.ExperimentRecord` back::

    SweepRunner(plan).run(store=store, executor=DistExecutor(workers=2))

Serving store/resume hits, flushing fresh records, ``on_record`` and
plan-order reassembly are ``SweepRunner.run``'s and exist only there; a
warm plan therefore never reaches this package.  What is pinned here (by
``tests/test_dist.py`` and the CI ``dist-smoke`` job):

* **Leases, not assignments** — a claimed shard carries a lease with a
  heartbeat deadline; a crashed or partitioned worker's lease expires and
  the shard is re-issued to the next claimer (*at-least-once execution*).
* **Exactly-once persistence** — completions are checked against the
  shard's spec key and accepted first-wins; duplicates from expired leases
  are acknowledged but discarded before the sweep path (and so the store)
  sees them.
* **Ack after flush** — a worker's ``complete`` is answered only once the
  sweep path has flushed the record and come back for the next one.
* **Fingerprint check** — every worker request carries the worker's code
  fingerprint; one different from the coordinator's is refused *by name*
  (both fingerprints in the message), so stale code never touches a shard.

:func:`run_distributed_sweep` is the one-call form behind
``python -m repro sweep --distributed N``.
"""

from repro.dist.board import DEFAULT_LEASE_TIMEOUT, ShardBoard
from repro.dist.coordinator import DistCoordinator, active_coordinators
from repro.dist.launch import (
    DistExecutor,
    DistributedSweepError,
    run_distributed_sweep,
    spawn_worker,
)
from repro.dist.protocol import (
    CoordinatorClient,
    ProtocolError,
    WorkerRejectedError,
    coordinator_status,
    parse_address,
)
from repro.dist.worker import run_worker

__all__ = [
    "DEFAULT_LEASE_TIMEOUT",
    "ShardBoard",
    "DistCoordinator",
    "DistExecutor",
    "active_coordinators",
    "DistributedSweepError",
    "run_distributed_sweep",
    "spawn_worker",
    "CoordinatorClient",
    "ProtocolError",
    "WorkerRejectedError",
    "coordinator_status",
    "parse_address",
    "run_worker",
]
