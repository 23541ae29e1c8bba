"""The dist executor: one coordinator plus N local workers, supervised.

:class:`DistExecutor` is the third executor of
:meth:`SweepRunner.run <repro.experiments.sweep.SweepRunner.run>` (what
``python -m repro sweep --distributed N`` passes as ``executor=``): handed
the pending ``(index, spec)`` pairs, it starts a
:class:`~repro.dist.coordinator.DistCoordinator` over just those specs,
launches ``N`` worker subprocesses (``python -m repro dist-worker``) against
it, supervises them (when every worker is dead and shards remain one is
respawned — the lost lease expires and the shard is re-issued) and yields
``(index, record)`` as completions are accepted.  Serving store hits,
flushing, ``on_record`` and plan order are the caller's.

``in_process=True`` swaps subprocesses for threads running the same
:func:`~repro.dist.worker.run_worker` loop against the same HTTP port —
identical protocol traffic, but cheap enough for unit tests and coverage.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from typing import Callable, Iterator, List, Mapping, Optional, Tuple, TYPE_CHECKING

import repro
from repro.dist.board import DEFAULT_LEASE_TIMEOUT
from repro.dist.coordinator import DistCoordinator
from repro.dist.worker import run_worker
from repro.experiments.plan import ExperimentPlan
from repro.experiments.sweep import ExperimentRecord, Pending, SweepResult, SweepRunner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import ResultStore


class DistributedSweepError(RuntimeError):
    """A distributed sweep cannot make progress (workers kept dying)."""


def spawn_worker(
    address: str,
    index: int = 0,
    poll: float = 0.2,
    fingerprint: Optional[str] = None,
) -> subprocess.Popen:
    """Launch one ``python -m repro dist-worker`` subprocess.

    The child inherits our environment with the ``repro`` package's parent
    directory prepended to ``PYTHONPATH`` (so a source checkout works
    without installation) and — when given — the coordinator's fingerprint
    pinned via ``REPRO_CODE_FINGERPRINT`` so the fingerprint check cannot
    flap when a source file is edited while the sweep runs.
    """
    env = dict(os.environ)
    package_parent = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    parts = [package_parent] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
    if fingerprint is not None:
        env["REPRO_CODE_FINGERPRINT"] = fingerprint
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "dist-worker",
            address,
            "--poll",
            str(poll),
            "--id",
            f"dist-w{index}",
        ],
        env=env,
        stdout=subprocess.DEVNULL,  # worker chatter; stderr stays visible
    )


class DistExecutor:
    """Executor: run the pending specs through a coordinator and ``workers``
    local workers (extra ``dist-worker`` processes on other hosts may join
    at ``host:port``).

    Worker subprocesses that die are respawned (bounded by ``max_respawns``,
    default ``workers``) once none is left alive and shards remain; with the
    budget spent, raises :class:`DistributedSweepError` instead of hanging.
    :attr:`procs` lists the subprocesses of the current run.
    """

    def __init__(
        self,
        workers: int = 2,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        host: str = "127.0.0.1",
        port: int = 0,
        worker_poll: float = 0.2,
        in_process: bool = False,
        max_respawns: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.jobs = workers
        self.lease_timeout = lease_timeout
        self.host, self.port = host, port
        self.worker_poll = worker_poll
        self.in_process = in_process
        self.max_respawns = workers if max_respawns is None else max_respawns
        self.procs: List[subprocess.Popen] = []

    def __call__(self, pending: Pending) -> Iterator[Tuple[int, ExperimentRecord]]:
        coordinator = DistCoordinator(
            [spec for _, spec in pending],
            lease_timeout=self.lease_timeout,
            host=self.host,
            port=self.port,
        )
        self.procs = []
        threads: List[threading.Thread] = []
        respawn_budget = self.max_respawns
        try:
            bind_host, bind_port = coordinator.start()
            address = f"{bind_host}:{bind_port}"

            def spawn() -> None:
                self.procs.append(
                    spawn_worker(
                        address,
                        index=len(self.procs),
                        poll=self.worker_poll,
                        fingerprint=coordinator.fingerprint,
                    )
                )

            def supervise() -> None:
                nonlocal respawn_budget
                if any(proc.poll() is None for proc in self.procs):
                    return
                if respawn_budget <= 0:
                    exitcodes = sorted({proc.returncode for proc in self.procs})
                    raise DistributedSweepError(
                        f"all {len(self.procs)} dist workers exited "
                        f"(exit codes {exitcodes}) with unfinished shards and "
                        f"the respawn budget is spent: "
                        f"{coordinator.board.counts()}"
                    )
                respawn_budget -= 1
                spawn()

            for index in range(self.jobs):
                if not self.in_process:
                    spawn()
                    continue
                threads.append(
                    threading.Thread(
                        target=run_worker,
                        args=(address,),
                        kwargs={
                            "worker_id": f"dist-t{index}",
                            "fingerprint": coordinator.fingerprint,
                            "poll_interval": self.worker_poll,
                        },
                        name=f"repro-dist-worker-{index}",
                        daemon=True,
                    )
                )
                threads[-1].start()
            idle = None if self.in_process else supervise
            for local, record in coordinator.completions(idle=idle):
                yield pending[local][0], record
        finally:
            for proc in self.procs:
                if proc.poll() is None:
                    proc.kill()
            for proc in self.procs:
                proc.wait(timeout=10.0)
            coordinator.close()
            for thread in threads:
                thread.join(timeout=10.0)


def run_distributed_sweep(
    plan: ExperimentPlan,
    workers: int = 2,
    store: Optional["ResultStore"] = None,
    seed_records: Optional[Mapping[str, ExperimentRecord]] = None,
    on_record: Optional[Callable[[int, ExperimentRecord, bool], None]] = None,
    **executor_options,
) -> SweepResult:
    """``SweepRunner(plan).run(...)`` on a :class:`DistExecutor` of
    ``workers`` local workers (``executor_options`` are its other keywords).

    Store and resume hits are served by the sweep path before the executor
    is called; a fully warm plan starts no coordinator and no worker.
    """
    return SweepRunner(plan).run(
        store=store,
        seed_records=seed_records,
        on_record=on_record,
        executor=DistExecutor(workers, **executor_options),
    )
