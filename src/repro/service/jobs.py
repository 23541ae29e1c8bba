"""Job orchestration for the experiment service (no HTTP in here).

A :class:`JobManager` is the service's worker half: one daemon thread drains
a FIFO of submitted :class:`~repro.experiments.plan.ExperimentPlan`\\ s and
runs each through the store-aware
:meth:`~repro.experiments.sweep.SweepRunner.run` on one long-lived warm
:class:`~repro.experiments.sweep.WorkerPool`.  Three properties the HTTP
layer builds on:

* **Coalescing** — submitting a plan whose canonical JSON hashes equal to a
  queued or running job's returns *that* job instead of enqueueing
  duplicate work (many clients asking for the same sweep share one
  execution, then all further submissions are instant store hits).
* **Streaming** — records append to the job in completion order under a
  condition variable; :meth:`iter_records` blocks for new ones, so an HTTP
  handler can turn a running job into a chunked NDJSON response.
* **Clean shutdown** — :meth:`close` stops the worker thread and closes the
  pool via its idle-safe graceful path, so a service restart never leaks
  worker processes.

Nothing here imports the HTTP half: the manager doubles as the library API
for "run these plans in the background of my process".
"""

from __future__ import annotations

import threading
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from repro.experiments.plan import ExperimentPlan
from repro.experiments.sweep import ExperimentRecord, SweepRunner, WorkerPool
from repro.store import ResultStore
from repro.store.keys import plan_key

#: job lifecycle states
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"


@dataclass
class Job:
    """One submitted plan and its (growing) results.

    ``records`` holds ``(index, record, served_from_store)`` tuples in
    completion order — ``index`` is the record's slot in plan order, so a
    client can reassemble the plan-ordered list from the stream.
    """

    id: str
    plan: ExperimentPlan
    total: int
    status: str = QUEUED
    done: int = 0
    served_from_store: int = 0
    error: Optional[str] = None
    records: List[Tuple[int, ExperimentRecord, bool]] = field(default_factory=list)
    #: how many submissions coalesced onto this job (1 = just the first)
    submissions: int = 1

    def progress(self) -> Dict[str, object]:
        """JSON-safe progress snapshot (the poll endpoint's payload)."""
        return {
            "id": self.id,
            "status": self.status,
            "done": self.done,
            "total": self.total,
            "served_from_store": self.served_from_store,
            "submissions": self.submissions,
            "error": self.error,
        }

    @property
    def finished(self) -> bool:
        return self.status in (DONE, FAILED)


class JobManager:
    """Background execution of experiment plans with store-backed dedup.

    Parameters
    ----------
    store:
        Shared result store (``None`` disables persistence/dedup across
        jobs; in-flight coalescing still applies).
    pool:
        Warm worker pool to run sweeps on; created (and owned) lazily when
        not given and ``jobs != 1``.
    jobs:
        Worker processes per sweep (``1`` = serial in the worker thread,
        what the tests use).
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        pool: Optional[WorkerPool] = None,
        jobs: Optional[int] = None,
    ) -> None:
        self.store = store
        self.jobs = jobs
        self._pool = pool
        self._owns_pool = pool is None and jobs != 1
        if self._owns_pool:
            self._pool = WorkerPool(processes=jobs)
        self._cv = threading.Condition()
        self._queue: Deque[Job] = deque()
        self._jobs: Dict[str, Job] = {}
        self._inflight: Dict[str, Job] = {}  # plan_key -> queued/running job
        self._sequence = 0
        self._closed = False
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-job-worker", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # submission and lookup
    # ------------------------------------------------------------------
    def submit(self, plan: ExperimentPlan) -> Tuple[Job, bool]:
        """Queue a plan; returns ``(job, coalesced)``.

        ``coalesced`` is true when an identical plan was already queued or
        running — the returned job is that one, and no new work enters the
        queue.
        """
        plan.validate()
        key = plan_key(plan)
        with self._cv:
            if self._closed:
                raise RuntimeError("JobManager is closed")
            existing = self._inflight.get(key)
            if existing is not None and not existing.finished:
                existing.submissions += 1
                return existing, True
            self._sequence += 1
            job = Job(
                id=f"job-{self._sequence:05d}-{key[:12]}",
                plan=plan,
                total=len(plan.specs()),
            )
            self._jobs[job.id] = job
            self._inflight[key] = job
            self._queue.append(job)
            self._cv.notify_all()
            return job, False

    def get(self, job_id: str) -> Job:
        """The job with that id (``KeyError`` if unknown)."""
        with self._cv:
            return self._jobs[job_id]

    def list_jobs(self) -> List[Dict[str, object]]:
        """Progress snapshots of every known job, newest first."""
        with self._cv:
            return [job.progress() for job in reversed(self._jobs.values())]

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Block until the job finishes (or the timeout elapses)."""
        job = self.get(job_id)
        with self._cv:
            self._cv.wait_for(lambda: job.finished, timeout=timeout)
        return job

    def iter_records(
        self, job_id: str, start: int = 0, poll_timeout: float = 0.5
    ) -> Iterator[Tuple[int, ExperimentRecord, bool]]:
        """Yield the job's ``(index, record, served)`` tuples from ``start``,
        blocking for new ones until the job finishes — the NDJSON stream."""
        job = self.get(job_id)
        cursor = start
        while True:
            with self._cv:
                self._cv.wait_for(
                    lambda: len(job.records) > cursor or job.finished,
                    timeout=poll_timeout,
                )
                batch = job.records[cursor:]
                finished = job.finished
            for item in batch:
                yield item
            cursor += len(batch)
            if finished and cursor >= len(job.records):
                return

    # ------------------------------------------------------------------
    # worker loop
    # ------------------------------------------------------------------
    def _run_loop(self) -> None:
        while True:
            with self._cv:
                self._cv.wait_for(lambda: self._queue or self._closed)
                if self._closed and not self._queue:
                    return
                job = self._queue.popleft()
                job.status = RUNNING
                self._cv.notify_all()
            self._execute(job)

    def _execute(self, job: Job) -> None:
        def on_record(index: int, record: ExperimentRecord, served: bool) -> None:
            with self._cv:
                job.records.append((index, record, served))
                job.done += 1
                if served:
                    job.served_from_store += 1
                self._cv.notify_all()

        try:
            SweepRunner(job.plan, jobs=self.jobs).run(
                pool=self._pool, store=self.store, on_record=on_record
            )
        except Exception as exc:  # keep serving other jobs after a bad plan
            traceback.print_exc()
            with self._cv:
                job.status = FAILED
                job.error = f"{type(exc).__name__}: {exc}"
                self._cv.notify_all()
            return
        with self._cv:
            job.status = DONE
            self._cv.notify_all()

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def close(self, timeout: float = 30.0) -> None:
        """Finish queued work, stop the worker thread, release the pool.

        Safe to call multiple times; after it returns no worker processes
        remain (the pool's graceful idle-safe close).
        """
        with self._cv:
            if self._closed:
                return
            self._closed = True
            self._cv.notify_all()
        self._thread.join(timeout=timeout)
        if self._owns_pool and self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
