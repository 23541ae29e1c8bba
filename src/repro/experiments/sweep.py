"""The one ``spec → record`` path, its executors, and JSON persistence.

:func:`execute_spec` is the unit of work — a module-level function so it can
be pickled into ``multiprocessing`` workers.  :meth:`SweepRunner.run` is the
**only** code that serves already-known records (result store, ``--resume``
seeds), flushes fresh ones and reassembles plan order; sweeps, the report
builder, the service and the distributed executor all go through it.

Fresh records come from an **executor**: a callable that takes the pending
``(index, spec)`` pairs and yields ``(index, record)`` in completion order,
carrying a ``jobs`` attribute (the worker count the result is labelled
with).  An executor may assume its specs are validated, non-empty and
unknown to the store; it owns nothing but execution.  There are three:

* :class:`InlineExecutor` — a loop in this process (``jobs=1``);
* :class:`PoolExecutor` — ``multiprocessing`` workers, dispatched
  **unordered, one spec per task** (``imap_unordered`` with chunk size 1) so
  one slow spec never pins siblings behind it, with dead-worker detection
  (:class:`WorkerCrashedError`) instead of a hang;
* :class:`repro.dist.DistExecutor` — an HTTP coordinator over the pending
  specs plus supervised workers (``sweep --distributed N``).

:class:`WorkerPool` is the warm-pool primitive and the one place a
``multiprocessing`` pool is built: kept alive and handed to any number of
``SweepRunner.run`` calls, a multi-plan driver (the report builder's
sections, the service) pays pool spin-up once instead of per plan; without a
shared pool the pool executor uses a private one and tears it down.  Workers
are forked after the parent has imported the engine, so they start with it.
Results serialise to the JSON layout of the repo's ``BENCH_*.json`` files.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import closing
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.experiments import run_result_row
from repro.experiments.plan import ExperimentPlan, ExperimentSpec
from repro.protocols.base import RunResult

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.store import ResultStore

#: in-process protocol-execution counter, incremented by :func:`execute_spec`.
#: The "second identical sweep against a warm store executes zero protocol
#: runs" acceptance test reads it (serial ``jobs=1`` sweeps only — worker
#: processes each count in their own copy).
RUN_COUNTER: Dict[str, int] = {"executed": 0}


class WorkerCrashedError(RuntimeError):
    """A pool worker process died mid-spec (segfault, OOM kill, SIGKILL).

    ``imap_unordered`` never yields the dead worker's task, so without
    detection the sweep would hang forever on a result that cannot arrive.
    :class:`PoolExecutor` polls the pool's worker processes while waiting and
    raises this error naming the dead pid/exit code and the spec keys that
    were still unfinished.
    """


@dataclass(frozen=True, kw_only=True)
class ExperimentRecord(RunResult):
    """The persisted outcome of one executed spec: its normalized
    :class:`~repro.protocols.base.RunResult` plus the spec and the
    wall-clock seconds.

    ``protocol`` and ``n`` are the spec's and ``raw`` is always ``None``, so
    records of *different protocols* share one schema (and one JSON file).
    """

    spec: ExperimentSpec
    seconds: float

    def row(self) -> Dict[str, object]:
        """One flat table row: the spec's columns after ``protocol`` and ``n``."""
        spec = self.spec
        row: Dict[str, object] = {
            "protocol": spec.protocol,
            "n": spec.n,
            "adversary": spec.adversary,
            "mode": spec.mode
            + ("-rushing" if spec.rushing else "")
            + ("+vec" if spec.backend != "message" else ""),
            "seed": spec.seed,
        }
        # ``protocol`` and ``n`` keep their places; the outcome columns follow
        row.update(run_result_row(self, seconds=round(self.seconds, 3)))
        return row

    def to_dict(self) -> Dict[str, object]:
        """``spec``, ``seconds``, then the outcome columns (``protocol`` and
        ``n`` appear only inside ``spec``)."""
        outcome = super().to_dict()
        del outcome["protocol"], outcome["n"]
        return {"spec": self.spec.to_dict(), "seconds": self.seconds, **outcome}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExperimentRecord":
        spec = ExperimentSpec.from_dict(data["spec"])  # type: ignore[arg-type]
        return super().from_dict({**data, "spec": spec, "protocol": spec.protocol, "n": spec.n})


def execute_spec(spec: ExperimentSpec) -> ExperimentRecord:
    """Run one spec and condense the result into a record (worker entry point)."""
    RUN_COUNTER["executed"] += 1
    start = time.perf_counter()
    result = spec.run()
    seconds = time.perf_counter() - start
    return ExperimentRecord(
        **{**vars(result), "protocol": spec.protocol, "n": spec.n, "raw": None},
        spec=spec,
        seconds=seconds,
    )


@dataclass(frozen=True)
class SweepResult:
    """All records of a finished sweep, in plan order."""

    plan: ExperimentPlan
    records: List[ExperimentRecord]
    total_seconds: float
    jobs: int
    #: how many records were served from a result store (or resume file)
    #: instead of executed; ``len(records)`` means a fully warm re-run
    served_from_store: int = 0
    #: the subset of ``served_from_store`` that came from a ``--resume``
    #: file rather than the store itself (store hits take precedence when
    #: both supply the same spec key)
    served_from_resume: int = 0

    def rows(self) -> List[Dict[str, object]]:
        """Flat table rows, one per record (plan order)."""
        return [record.row() for record in self.records]

    def filter(self, **spec_fields) -> List[ExperimentRecord]:
        """Records whose spec matches every given field (e.g. ``mode="sync"``)."""
        return [
            record
            for record in self.records
            if all(getattr(record.spec, k) == v for k, v in spec_fields.items())
        ]

    def to_dict(self) -> Dict[str, object]:
        return {
            "plan": self.plan.to_dict(),
            "records": [record.to_dict() for record in self.records],
            "total_seconds": self.total_seconds,
            "jobs": self.jobs,
            "served_from_store": self.served_from_store,
            "served_from_resume": self.served_from_resume,
        }

    def canonical_dict(self) -> Dict[str, object]:
        """The sweep with every volatile field zeroed.

        Wall-clock seconds, the worker count and the served-from counters
        depend on where and how a sweep ran, not on *what* it computed; the
        canonical form drops them so two runs of the same plan — serial,
        pooled, or distributed across hosts — serialise byte-for-byte
        identically iff their records match.  This is what the distributed
        executor's equivalence checks compare.
        """
        data = self.to_dict()
        data["total_seconds"] = 0.0
        data["jobs"] = 0
        data["served_from_store"] = 0
        data["served_from_resume"] = 0
        for record in data["records"]:
            record["seconds"] = 0.0
        return data

    def save(self, path: str, canonical: bool = False) -> None:
        """Persist the sweep as JSON (the ``BENCH_*.json`` layout).

        ``canonical=True`` writes :meth:`canonical_dict` — the byte-stable
        form used for cross-run equivalence comparison.
        """
        data = self.canonical_dict() if canonical else self.to_dict()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)

    @staticmethod
    def load(path: str) -> "SweepResult":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return SweepResult(
            plan=ExperimentPlan.from_dict(data["plan"]),
            records=[ExperimentRecord.from_dict(r) for r in data["records"]],
            total_seconds=data["total_seconds"],
            jobs=data["jobs"],
            served_from_store=data.get("served_from_store", 0),
            served_from_resume=data.get("served_from_resume", 0),
        )

    @staticmethod
    def load_records(path: str) -> List[ExperimentRecord]:
        """Records of a saved sweep without requiring its plan to match
        anything — the ``sweep --resume`` seed loader."""
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return [ExperimentRecord.from_dict(r) for r in data.get("records", ())]


def _worker_context():
    """Pick the cheapest available multiprocessing start method."""
    import multiprocessing  # only a pool needs it; a served sweep never builds one

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _execute_indexed(task: Tuple[int, ExperimentSpec]) -> Tuple[int, ExperimentRecord]:
    """Worker entry point for unordered dispatch: tag the record with its slot."""
    index, spec = task
    return index, execute_spec(spec)


class WorkerPool:
    """A warm multiprocessing pool shared across any number of sweep runs.

    ``SweepRunner.run(pool=...)`` reuses the pool instead of building (and
    tearing down) a private one per plan; the pool lazily starts on first use
    and *grows* (rebuilds larger) if a later plan asks for more workers than
    it currently has.  Use as a context manager::

        with WorkerPool() as pool:
            for plan in plans:
                SweepRunner(plan).run(pool=pool)
    """

    def __init__(self, processes: Optional[int] = None) -> None:
        #: upper bound on pool size (``None``: grow as plans demand)
        self.processes = processes
        self._pool = None
        self._size = 0

    @property
    def size(self) -> int:
        """Current number of worker processes (0 before first use)."""
        return self._size

    def acquire(self, jobs: int):
        """Return a pool with at least ``min(jobs, self.processes)`` workers."""
        want = jobs if self.processes is None else min(jobs, self.processes)
        want = max(1, want)
        if self._pool is None or self._size < want:
            self.close()
            # Forked workers inherit the parent's modules: import the engine
            # here, once, instead of compiling it in every worker (a served
            # plan never gets this far, so it never pays for it).
            import repro.ae.protocol  # noqa: F401
            import repro.runner  # noqa: F401

            self._pool = _worker_context().Pool(processes=want)
            self._size = want
        return self._pool

    def close(self) -> None:
        """Shut the workers down gracefully (idempotent).

        Idle-safe: ``Pool.close()`` lets workers finish anything still in
        flight before exiting and ``join()`` reaps them, so a long-lived
        owner (the experiment service's one pool across all requests) can
        shut down without leaking processes.  Falls back to a hard
        :meth:`terminate` if graceful teardown itself fails.
        """
        if self._pool is not None:
            pool, self._pool, self._size = self._pool, None, 0
            try:
                pool.close()
                pool.join()
            except Exception:  # pragma: no cover - teardown races only
                pool.terminate()
                pool.join()

    def terminate(self) -> None:
        """Kill the workers immediately (idempotent; drops in-flight work)."""
        if self._pool is not None:
            pool, self._pool, self._size = self._pool, None, 0
            pool.terminate()
            pool.join()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: the ``(plan index, spec)`` pairs an executor is handed
Pending = Sequence[Tuple[int, ExperimentSpec]]
#: what an executor is: pending pairs in, ``(index, record)`` pairs out in
#: completion order, plus a ``jobs`` attribute labelling the result
Executor = Callable[[Pending], Iterator[Tuple[int, ExperimentRecord]]]


class InlineExecutor:
    """Executor: run the pending specs one after another in this process."""

    jobs = 1

    def __call__(self, pending: Pending) -> Iterator[Tuple[int, ExperimentRecord]]:
        for index, spec in pending:
            yield index, execute_spec(spec)


class PoolExecutor:
    """Executor: fan the pending specs across ``multiprocessing`` workers.

    A shared ``pool`` is reused and left warm for the caller's next plan;
    without one a private :class:`WorkerPool` is built and torn down.
    """

    def __init__(self, jobs: int, pool: Optional[WorkerPool] = None) -> None:
        self.jobs = jobs
        self._shared = pool

    def __call__(self, pending: Pending) -> Iterator[Tuple[int, ExperimentRecord]]:
        from multiprocessing import TimeoutError as PoolTimeout

        if self._shared is None:  # a private pool never outnumbers its work
            pool, want = WorkerPool(), min(self.jobs, len(pending))
        else:
            pool, want = self._shared, self.jobs
        if any(spec.backend == "vectorized" for _, spec in pending):
            # before ``acquire`` forks, so new workers inherit it with the engine
            import repro.vec.engine  # noqa: F401
        worker_pool = pool.acquire(want)
        self.jobs = min(pool.size, len(pending))
        unfinished = {index: spec.key for index, spec in pending}
        try:
            # Track worker Process objects by pid from *before* dispatch:
            # Pool silently reaps and respawns dead workers, so a crashed
            # process is only observable through a reference captured
            # while it was still in the pool's worker list.
            tracked: Dict[int, object] = {}
            for proc in getattr(worker_pool, "_pool", None) or ():
                tracked.setdefault(proc.pid, proc)
            iterator = worker_pool.imap_unordered(_execute_indexed, list(pending))
            while unfinished:
                try:
                    index, record = iterator.next(timeout=0.25)
                except PoolTimeout:
                    for proc in getattr(worker_pool, "_pool", None) or ():
                        tracked.setdefault(proc.pid, proc)
                    dead = [
                        proc
                        for proc in tracked.values()
                        if proc.exitcode not in (None, 0)
                    ]
                    if dead:
                        pool.terminate()
                        raise WorkerCrashedError(
                            f"sweep worker pid {dead[0].pid} died with exit "
                            f"code {dead[0].exitcode} while "
                            f"{len(unfinished)} spec(s) were unfinished "
                            f"(first: {next(iter(unfinished.values()))}) "
                            f"— its results can never arrive, aborting the "
                            f"sweep instead of hanging"
                        )
                    continue
                del unfinished[index]
                yield index, record
        finally:
            if self._shared is None:
                pool.terminate()


class SweepRunner:
    """Run an :class:`ExperimentPlan` through the one ``spec → record`` path.

    Parameters
    ----------
    plan:
        The grid to run.
    jobs:
        Worker processes; ``None`` picks ``min(cpu_count, len(plan))``, and
        ``1`` runs serially in-process (no pool), which is what tests use for
        determinism of coverage measurements and debuggability.
    """

    def __init__(self, plan: ExperimentPlan, jobs: Optional[int] = None) -> None:
        self.plan = plan
        self.jobs = jobs

    def resolve_jobs(self, spec_count: int) -> int:
        if self.jobs is not None:
            return max(1, self.jobs)
        return max(1, min(os.cpu_count() or 1, spec_count))

    def run(
        self,
        pool: Optional[WorkerPool] = None,
        store: Optional["ResultStore"] = None,
        seed_records: Optional[Mapping[str, ExperimentRecord]] = None,
        on_record: Optional[Callable[[int, ExperimentRecord, bool], None]] = None,
        executor: Optional[Executor] = None,
    ) -> SweepResult:
        """Execute every spec of the plan; records come back in plan order.

        Every spec is validated against its protocol adapter *before*
        anything executes, so a bad parameter fails fast instead of half-way
        through a long sweep.

        With ``store`` (a :class:`~repro.store.ResultStore`) the run is
        *incremental*: records already stored under the current code
        fingerprint are served without executing anything, only the delta
        runs, and each freshly computed record is flushed to the store as
        it arrives — an interrupted sweep therefore resumes by simply
        re-running the same command.  ``seed_records`` (spec-key → record,
        the ``--resume`` file) serves the same way but is not re-persisted
        unless a store is also given.  ``on_record(index, record,
        served_from_store)`` fires once per record — served ones first, in
        plan order, then fresh ones in completion order, each *after* its
        flush — the service's progress/streaming hook.

        The pending delta goes to ``executor``; by default that is
        :class:`InlineExecutor` for ``jobs == 1`` (or a single pending spec)
        and :class:`PoolExecutor` otherwise — on ``pool`` when given, whose
        warm workers stay alive for the caller's next plan.  Nothing pending
        means no executor call at all (no pool, no coordinator, no worker)
        and ``jobs == 1`` on the result.
        """
        from repro.store.keys import spec_key as _spec_key

        specs = self.plan.specs()
        for spec in specs:
            spec.validate()
        start = time.perf_counter()
        records: List[Optional[ExperimentRecord]] = [None] * len(specs)
        served = 0
        served_resume = 0
        if store is not None:
            for index, hit in enumerate(store.get_many(specs)):
                if hit is not None:
                    records[index] = hit
        if seed_records:
            for index, spec in enumerate(specs):
                if records[index] is None:
                    hit = seed_records.get(_spec_key(spec))
                    if hit is not None:
                        records[index] = hit
                        served_resume += 1
                        if store is not None:
                            store.put(hit)
        for index, record in enumerate(records):
            if record is not None:
                served += 1
                if on_record is not None:
                    on_record(index, record, True)
        pending = [(i, spec) for i, spec in enumerate(specs) if records[i] is None]
        jobs = 1
        if pending:
            if executor is None:
                workers = self.resolve_jobs(len(pending))
                if (workers == 1 or len(pending) == 1) and pool is None:
                    executor = InlineExecutor()
                else:
                    executor = PoolExecutor(workers, pool)
            with closing(executor(pending)) as fresh:
                for index, record in fresh:
                    records[index] = record
                    if store is not None:
                        store.put(record)
                    if on_record is not None:
                        on_record(index, record, False)
            jobs = executor.jobs
            missing = [specs[i].key for i, _ in pending if records[i] is None]
            if missing:
                raise RuntimeError(
                    f"executor finished without a record for {len(missing)} "
                    f"spec(s) (first: {missing[0]})"
                )
        return SweepResult(
            plan=self.plan,
            records=records,
            total_seconds=time.perf_counter() - start,
            jobs=jobs,
            served_from_store=served,
            served_from_resume=served_resume,
        )


def run_sweep(
    plan: ExperimentPlan,
    jobs: Optional[int] = None,
    out: Optional[str] = None,
    pool: Optional[WorkerPool] = None,
    store: Optional["ResultStore"] = None,
    seed_records: Optional[Mapping[str, ExperimentRecord]] = None,
) -> SweepResult:
    """Convenience wrapper: run a plan and optionally persist the result."""
    result = SweepRunner(plan, jobs=jobs).run(
        pool=pool, store=store, seed_records=seed_records
    )
    if out is not None:
        result.save(out)
    return result
