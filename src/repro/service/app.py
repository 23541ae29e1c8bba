"""Stdlib ``http.server`` layer over the JobManager: the service's API half.

This endpoint list is the contract (JSON; every error is ``{"detail": …}``):

* ``GET  /healthz`` — liveness + store/job counters.
* ``POST /plans`` — submit an :class:`~repro.experiments.plan.ExperimentPlan`
  as JSON (the ``plan.to_dict()`` layout); returns the job id (202; 422 for
  an invalid plan).  Identical in-flight submissions coalesce onto one job
  (``coalesced: true``).
* ``GET  /jobs`` — progress snapshots of every job, newest first.
* ``GET  /jobs/{job_id}`` — one job's progress (done/total,
  served-from-store count, status).
* ``GET  /jobs/{job_id}/records`` — **chunked NDJSON stream**: one
  ``{"index", "served_from_store", "record"}`` line per record in
  completion order, blocking until the job finishes; ``?start=N`` resumes a
  dropped stream.
* ``GET  /jobs/{job_id}/result`` — the finished plan-ordered record list
  (409 while still running).
* ``GET  /store/stats`` — the store's :meth:`~repro.store.ResultStore.stats`,
  with the ``lookup_hits`` / ``lookup_misses`` of this server's lookups.
* ``GET  /store/records`` — query stored records by protocol/fingerprint
  (both 404 when the service runs without a store).
* ``GET  /dist/coordinators`` — status snapshots of every live distributed
  sweep coordinator in this process (see :mod:`repro.dist`); each describes
  the pending delta its sweep handed to the dist executor, not the plan.

Route functions are plain ``(app, path params, query, body) -> (status,
payload)``, :class:`_Handler` is transport only, :func:`make_server` the entry.
A dist coordinator serves :data:`DIST_ROUTES` (see :mod:`repro.dist.protocol`)
through the same handler, with itself as ``app``.  Access lines go to the
``repro.service`` logger at INFO.
"""

from __future__ import annotations

import json
import logging
import re
import threading
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterator, Optional
from urllib.parse import parse_qsl, urlsplit

from repro.experiments.plan import ExperimentPlan
from repro.service.jobs import JobManager
from repro.store import ResultStore, default_store_path

#: largest request body accepted; a longer one is refused (413) unread
MAX_BODY_BYTES = 1 << 20
#: the only spelling of a count taken from outside (``start``, ``limit``, Content-Length)
NATURAL = re.compile(r"[0-9]{1,18}")
LOG = logging.getLogger("repro.service")


class HTTPError(Exception):
    """``HTTPError(status, detail)``: a route's ``{"detail": detail}`` answer."""


def _job(manager: JobManager, job_id: str):
    try:
        return manager.get(job_id)
    except KeyError:
        raise HTTPError(404, f"unknown job {job_id!r}") from None


def _store(manager: JobManager) -> ResultStore:
    if manager.store is None:
        raise HTTPError(404, "service runs without a store")
    return manager.store


def _count(query: dict, name: str, default: int) -> int:
    text = query.get(name, str(default))
    if not NATURAL.fullmatch(text):
        raise HTTPError(422, f"{name} must be a non-negative integer, got {text!r}")
    return int(text)


def healthz(manager, params, query, body):
    stats = manager.store.stats() if manager.store is not None else None
    return 200, {"status": "ok", "jobs": len(manager.list_jobs()), "store": stats}


def submit_plan(manager, params, query, body):
    if not isinstance(body, dict):
        raise HTTPError(422, "the plan must be a JSON object")
    try:
        job, coalesced = manager.submit(ExperimentPlan.from_dict(body))
    except (ValueError, TypeError) as exc:
        raise HTTPError(422, str(exc)) from None
    return 202, {"job_id": job.id, "coalesced": coalesced, "total": job.total}


def list_jobs(manager, params, query, body):
    return 200, manager.list_jobs()


def job_progress(manager, params, query, body):
    return 200, _job(manager, params["job_id"]).progress()


def job_records(manager, params, query, body):
    job_id, start = params["job_id"], _count(query, "start", 0)
    _job(manager, job_id)  # 404 before the stream starts, not inside it
    return 200, (
        json.dumps(
            {"index": index, "served_from_store": served, "record": record.to_dict()},
            sort_keys=True, separators=(",", ":"),
        ) + "\n"
        for index, record, served in manager.iter_records(job_id, start=start)
    )


def job_result(manager, params, query, body):
    job = _job(manager, params["job_id"])
    if not job.finished:
        raise HTTPError(409, f"job {job.id!r} is {job.status} ({job.done}/{job.total})")
    ordered = sorted(job.records, key=lambda item: item[0])
    return 200, {**job.progress(), "records": [record.to_dict() for _, record, _ in ordered]}


def store_stats(manager, params, query, body):
    return 200, _store(manager).stats()


def store_records(manager, params, query, body):
    return 200, _store(manager).query(
        protocol=query.get("protocol"), fingerprint=query.get("fingerprint"),
        limit=_count(query, "limit", 100),
    )


def dist_coordinators(manager, params, query, body):
    from repro.dist.coordinator import active_coordinators

    return 200, active_coordinators()


#: the service's route table: (method, path regex, route)
ROUTES = [
    ("GET", "/healthz", healthz),
    ("POST", "/plans", submit_plan),
    ("GET", "/jobs", list_jobs),
    ("GET", "/jobs/(?P<job_id>[^/]+)", job_progress),
    ("GET", "/jobs/(?P<job_id>[^/]+)/records", job_records),
    ("GET", "/jobs/(?P<job_id>[^/]+)/result", job_result),
    ("GET", "/store/stats", store_stats),
    ("GET", "/store/records", store_records),
    ("GET", "/dist/coordinators", dist_coordinators),
]


def _worker(coordinator, body) -> str:
    """The requesting worker's name; 403 naming both fingerprints when its
    code is not the coordinator's, so a stale worker never touches a shard."""
    if not isinstance(body, dict):
        raise HTTPError(422, "the request must be a JSON object")
    worker = str(body.get("worker", "?"))
    refusal = coordinator.refusal(worker, str(body.get("fingerprint", "")))
    if refusal:
        raise HTTPError(403, refusal)
    return worker


def dist_hello(coordinator, params, query, body):
    return 200, coordinator.handshake(_worker(coordinator, body))


def dist_claim(coordinator, params, query, body):
    return 200, coordinator.claim(_worker(coordinator, body))


def dist_heartbeat(coordinator, params, query, body):
    _worker(coordinator, body)
    alive = coordinator.board.heartbeat(str(body.get("lease", "")))
    return 200, {"type": "ok" if alive else "expired"}


def dist_complete(coordinator, params, query, body):
    worker = _worker(coordinator, body)
    try:
        accepted = coordinator.complete(int(body["index"]), body["record"], worker=worker)
    except (KeyError, TypeError, ValueError) as exc:
        raise HTTPError(422, f"bad complete frame: {exc}") from None
    return 200, {"type": "ok", "accepted": accepted}


def dist_status(coordinator, params, query, body):
    return 200, {"type": "status", **coordinator.status()}


#: a dist coordinator's route table (its app is the coordinator)
DIST_ROUTES = [
    ("POST", "/dist/hello", dist_hello),
    ("POST", "/dist/claim", dist_claim),
    ("POST", "/dist/heartbeat", dist_heartbeat),
    ("POST", "/dist/complete", dist_complete),
    ("GET", "/dist/status", dist_status),
]


class _Handler(BaseHTTPRequestHandler):
    """Transport only: parse the request, dispatch through the server's
    route table, write."""

    protocol_version = "HTTP/1.1"  # chunked streaming needs it
    # headers and body are two writes: with Nagle on, a keep-alive client
    # waits out its delayed ACK (~40 ms) before every body
    disable_nagle_algorithm = True

    def _answer(self):
        url = urlsplit(self.path)
        allowed = {
            method: (route, match)
            for method, pattern, route in self.server.routes
            if (match := re.fullmatch(pattern, url.path))
        }
        if not allowed:
            raise HTTPError(404, f"no such path {url.path!r}")
        if self.command not in allowed:
            raise HTTPError(405, f"{self.command} is not allowed on {url.path!r}")
        route, match = allowed[self.command]
        body = self._json_body() if self.command == "POST" else None
        return route(self.server.app, match.groupdict(), dict(parse_qsl(url.query)), body)

    def _json_body(self):
        length = self.headers.get("Content-Length", "")
        if not NATURAL.fullmatch(length):
            raise HTTPError(411, "a Content-Length is required")
        if int(length) > MAX_BODY_BYTES:
            raise HTTPError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        try:
            return json.loads(self.rfile.read(int(length)))
        except ValueError:
            raise HTTPError(422, "body is not valid JSON") from None

    def _dispatch(self) -> None:
        try:
            status, payload = self._answer()
        except HTTPError as exc:
            status, payload = exc.args[0], {"detail": exc.args[1]}
        except Exception as exc:  # the boundary: report it, keep serving
            traceback.print_exc()
            status, payload = 500, {"detail": f"{type(exc).__name__}: {exc}"}
        if isinstance(payload, Iterator):
            self._write_stream(payload)
        else:
            self._write_json(status, payload)

    do_GET = do_POST = do_PUT = do_DELETE = _dispatch

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionError:
            pass  # the client left mid-request or mid-answer; its job runs on

    def log_message(self, format, *args) -> None:
        LOG.info("%s - - [%s] %s", self.address_string(), self.log_date_time_string(),
                 format % args)

    def _write_json(self, status: int, payload) -> None:
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if status >= 400:  # the request body may be unread: drop the connection
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def _write_stream(self, lines: Iterator[str]) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        for line in lines:
            data = line.encode()
            self.wfile.write(b"%x\r\n%s\r\n" % (len(data), data))
        self.wfile.write(b"0\r\n\r\n")


class ServiceServer(ThreadingHTTPServer):
    """An HTTP server answering ``routes`` for ``app`` (what every route gets
    first); after :meth:`start` it serves on a daemon thread (handler threads
    are daemonic too) until :meth:`close` / the end of its ``with``."""

    owned: tuple = ()  # what make_server created for this server, closed with it

    def __init__(self, address, routes, app=None) -> None:
        super().__init__(address, _Handler)
        self.routes, self.app = routes, app

    def start(self) -> "ServiceServer":
        threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.05},  # bounds close()
            name="repro-http", daemon=True,
        ).start()
        return self

    def close(self) -> None:
        """Stop serving and release what this server owns (idempotent)."""
        self.shutdown()
        self.server_close()
        for resource in self.owned:
            resource.close()

    def __exit__(self, *exc_info) -> None:
        self.close()


def make_server(
    store_path: Optional[str] = None, jobs: Optional[int] = None,
    manager: Optional[JobManager] = None, host: str = "127.0.0.1", port: int = 0,
) -> ServiceServer:
    """Bind the service and start serving; ``server_address`` is what it bound.

    ``store_path`` defaults to :func:`repro.store.default_store_path`; pass a
    ``manager`` to share one (tests).  The server owns what it creates here:
    manager, pool and store go through their idle-safe close paths.
    """
    store = ResultStore(store_path or default_store_path()) if manager is None else None
    try:
        server = ServiceServer((host, port), ROUTES)
    except OSError:
        if store is not None:
            store.close()
        raise
    if manager is None:
        manager = JobManager(store=store, jobs=jobs)
        server.owned = (manager, store)
    server.app = manager
    return server.start()
