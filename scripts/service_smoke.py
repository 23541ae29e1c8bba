#!/usr/bin/env python
"""End-to-end smoke test of the experiment service over real HTTP.

Starts ``python -m repro serve --port 0 --jobs 2`` as a subprocess against a
fresh store and reads the address it bound from its first output line,
submits a 4-spec quick plan, polls the job to completion, streams its
records, then re-submits the identical plan and asserts every record is
served from the store (zero protocol re-executions).  Finally it SIGTERMs
the server and asserts a clean shutdown: exit code 0 within 15 s and none of
its pool worker processes left alive.  Server and smoke are both
stdlib-only (``http.server`` / ``urllib``).

Exit code 0 on success; any assertion or timeout exits non-zero.  This is
the CI ``service-smoke`` job; it also runs fine locally::

    python scripts/service_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

PLAN = {
    "ns": [24],
    "seeds": [0, 1],
    "adversaries": ["none", "silent"],
    "modes": ["async"],
    "label": "service-smoke",
}  # 1 n x 2 seeds x 2 adversaries x 1 mode = 4 specs


def request(base: str, path: str, payload: dict | None = None) -> tuple[int, dict]:
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(
        base + path, data=data,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


def wait_for(predicate, timeout: float, what: str):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        result = predicate()
        if result is not None:
            return result
        time.sleep(0.25)
    raise SystemExit(f"smoke: timed out after {timeout:.0f}s waiting for {what}")


def finished_job(base: str, job_id: str):
    _, job = request(base, f"/jobs/{job_id}")
    return job if job["status"] in ("done", "failed") else None


def run_smoke(base: str) -> str:
    """Drive the loop against a listening server; returns the summary line."""
    status, health = request(base, "/healthz")
    assert status == 200 and health["status"] == "ok", f"healthz: {status} {health}"

    status, first = request(base, "/plans", PLAN)
    assert status == 202, f"submit returned {status}: {first}"
    assert first["total"] == 4, f"expected a 4-spec plan, got {first['total']}"
    job = wait_for(lambda: finished_job(base, first["job_id"]), 120, "job 1")
    assert job["status"] == "done", f"job 1 failed: {job.get('error')}"
    assert job["done"] == 4

    with urllib.request.urlopen(
        base + f"/jobs/{first['job_id']}/records", timeout=30
    ) as resp:
        lines = [json.loads(line) for line in resp.read().splitlines()]
    assert len(lines) == 4, f"streamed {len(lines)} records, expected 4"
    assert {line["record"]["spec"]["adversary"] for line in lines} == {"none", "silent"}

    # the identical plan again: every record must come out of the store
    status, second = request(base, "/plans", PLAN)
    assert status == 202 and second["job_id"] != first["job_id"]
    again = wait_for(lambda: finished_job(base, second["job_id"]), 60, "job 2")
    assert again["status"] == "done", f"job 2 failed: {again.get('error')}"
    served = again["served_from_store"]
    assert served == again["total"] == 4, (
        f"re-submit served {served}/{again['total']} from the store, expected 4/4"
    )

    _, stats = request(base, "/store/stats")
    assert stats["records"] == 4, f"store holds {stats['records']} records, expected 4"
    return (f"smoke: OK — 4 ran, then {served}/4 served from store "
            f"({stats['records']} records at {stats['path']})")


def parent_of(pid: int) -> int | None:
    """The parent pid of a live process (Linux ``/proc``); ``None`` once it
    is gone or a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state, ppid = handle.read().rsplit(")", 1)[1].split()[:2]
    except OSError:
        return None
    return None if state == "Z" else int(ppid)


def main() -> int:
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        store = os.path.join(tmp, "smoke-store.sqlite")
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--port", "0", "--store", store, "--jobs", "2"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            banner = server.stdout.readline()  # "serving on http://host:port (store: …)"
            assert banner.startswith("serving on http://"), f"unexpected banner {banner!r}"
            summary = run_smoke(banner.split()[2])
            pids = map(int, filter(str.isdigit, os.listdir("/proc")))
            workers = [pid for pid in pids if parent_of(pid) == server.pid]
            assert workers, "the --jobs 2 server ran the plan without pool workers"
        finally:
            server.terminate()
            try:
                code = server.wait(timeout=15)
            except subprocess.TimeoutExpired:
                server.kill()
                raise SystemExit("smoke: the server ignored SIGTERM for 15 s")
        assert code == 0, f"server exited with {code} on SIGTERM, expected 0"
        leaked = [pid for pid in workers if parent_of(pid) is not None]
        assert not leaked, f"worker processes survived the server: {leaked}"
        print(f"{summary}; SIGTERM: exit 0, {len(workers)} pool workers reaped")
    return 0


if __name__ == "__main__":
    sys.exit(main())
