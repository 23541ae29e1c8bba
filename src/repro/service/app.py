"""FastAPI application over the JobManager: the experiment service's API half.

Endpoints (all JSON unless noted):

* ``GET  /healthz`` — liveness + store/job counters.
* ``POST /plans`` — submit an :class:`~repro.experiments.plan.ExperimentPlan`
  as JSON (the ``plan.to_dict()`` layout); returns the job id.  Identical
  in-flight submissions coalesce onto one job (``coalesced: true``).
* ``GET  /jobs`` — progress snapshots of every job, newest first.
* ``GET  /jobs/{job_id}`` — one job's progress (done/total,
  served-from-store count, status).
* ``GET  /jobs/{job_id}/records`` — **chunked NDJSON stream**: one
  ``{"index", "served_from_store", "record"}`` line per record in
  completion order, blocking until the job finishes; ``?start=N`` resumes a
  dropped stream.
* ``GET  /jobs/{job_id}/result`` — the finished plan-ordered record list
  (409 while still running).
* ``GET  /store/stats`` — the store's :meth:`~repro.store.ResultStore.stats`.
* ``GET  /store/records`` — query stored records by protocol/fingerprint.
* ``GET  /dist/coordinators`` — status snapshots of every live distributed
  sweep coordinator in this process (see :mod:`repro.dist`); each describes
  the pending delta its sweep handed to the dist executor, not the plan.

This module imports fastapi and must only be loaded through
:func:`repro.service.create_app` (which guards the optional dependency) or
``python -m repro serve``.
"""

from __future__ import annotations

import json
from contextlib import asynccontextmanager
from typing import Optional

from fastapi import APIRouter, FastAPI, HTTPException
from fastapi.responses import StreamingResponse

from repro.experiments.plan import ExperimentPlan
from repro.service.jobs import JobManager
from repro.store import ResultStore, default_store_path


def _record_line(index: int, record, served: bool) -> str:
    payload = {
        "index": index,
        "served_from_store": served,
        "record": record.to_dict(),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def build_router(manager: JobManager) -> APIRouter:
    """The service's routes, bound to one JobManager."""
    router = APIRouter()

    @router.get("/healthz")
    def healthz() -> dict:
        stats = manager.store.stats() if manager.store is not None else None
        return {
            "status": "ok",
            "jobs": len(manager.list_jobs()),
            "store": stats,
        }

    @router.post("/plans", status_code=202)
    def submit_plan(plan: dict) -> dict:
        try:
            parsed = ExperimentPlan.from_dict(plan)
            job, coalesced = manager.submit(parsed)
        except (ValueError, TypeError) as exc:
            raise HTTPException(status_code=422, detail=str(exc)) from None
        return {"job_id": job.id, "coalesced": coalesced, "total": job.total}

    @router.get("/jobs")
    def list_jobs() -> list:
        return manager.list_jobs()

    def _job(job_id: str):
        try:
            return manager.get(job_id)
        except KeyError:
            raise HTTPException(status_code=404, detail=f"unknown job {job_id!r}") from None

    @router.get("/jobs/{job_id}")
    def job_progress(job_id: str) -> dict:
        return _job(job_id).progress()

    @router.get("/jobs/{job_id}/records")
    def job_records(job_id: str, start: int = 0) -> StreamingResponse:
        _job(job_id)  # 404 before the stream starts, not inside it

        def stream():
            for index, record, served in manager.iter_records(job_id, start=start):
                yield _record_line(index, record, served)

        return StreamingResponse(stream(), media_type="application/x-ndjson")

    @router.get("/jobs/{job_id}/result")
    def job_result(job_id: str) -> dict:
        job = _job(job_id)
        if not job.finished:
            raise HTTPException(
                status_code=409,
                detail=f"job {job_id!r} is {job.status} ({job.done}/{job.total})",
            )
        ordered = sorted(job.records, key=lambda item: item[0])
        return {
            **job.progress(),
            "records": [record.to_dict() for _, record, _ in ordered],
        }

    @router.get("/store/stats")
    def store_stats() -> dict:
        if manager.store is None:
            raise HTTPException(status_code=404, detail="service runs without a store")
        return manager.store.stats()

    @router.get("/store/records")
    def store_records(
        protocol: Optional[str] = None,
        fingerprint: Optional[str] = None,
        limit: int = 100,
    ) -> list:
        if manager.store is None:
            raise HTTPException(status_code=404, detail="service runs without a store")
        return manager.store.query(
            protocol=protocol, fingerprint=fingerprint, limit=limit
        )

    @router.get("/dist/coordinators")
    def dist_coordinators() -> list:
        from repro.dist import active_coordinators

        return active_coordinators()

    return router


def create_app(
    store_path: Optional[str] = None,
    jobs: Optional[int] = None,
    manager: Optional[JobManager] = None,
) -> FastAPI:
    """Build the service application.

    ``store_path`` defaults to :func:`repro.store.default_store_path`
    (``$REPRO_STORE`` or ``.repro-store.sqlite``); pass an explicit
    ``manager`` to share one across apps (tests).  The app owns whatever it
    creates: manager, pool and store are released on shutdown through the
    idle-safe close path.
    """
    owned = manager is None
    if manager is None:
        store = ResultStore(store_path or default_store_path())
        manager = JobManager(store=store, jobs=jobs)

    @asynccontextmanager
    async def lifespan(app: FastAPI):
        yield
        if owned:
            manager.close()
            if manager.store is not None:
                manager.store.close()

    app = FastAPI(
        title="aer-repro experiment service",
        description="Submit experiment plans, stream records, query the "
        "content-addressed result store.",
        lifespan=lifespan,
    )
    app.state.manager = manager
    app.include_router(build_router(manager))
    return app
