"""Experiment-service subsystem: job manager, coalescing, streaming, HTTP layer.

Both halves are stdlib-only and fully tested here: the
:class:`~repro.service.jobs.JobManager` directly, the ``http.server`` layer
through a real :func:`~repro.service.make_server` socket on a loopback port
(``urllib`` via the ``http`` fixture, raw sockets where the request itself is
the malformed input).  ``scripts/service_smoke.py`` covers the ``python -m
repro serve`` process with a worker pool end to end.
"""

from __future__ import annotations

import json
import logging
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.experiments.plan import ExperimentPlan
from repro.experiments.sweep import RUN_COUNTER, SweepRunner
from repro.service import JobManager, make_server
from repro.service.jobs import DONE, FAILED
from repro.store import ResultStore


@pytest.fixture(autouse=True)
def _pinned_fingerprint(monkeypatch):
    monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "service-test-fp")


@pytest.fixture()
def store(tmp_path):
    with ResultStore(str(tmp_path / "store.sqlite")) as s:
        yield s


@pytest.fixture()
def manager(store):
    with JobManager(store=store, jobs=1) as mgr:
        yield mgr


PLAN = ExperimentPlan(ns=(24,), seeds=(3, 4))


class TestJobManager:
    def test_submit_poll_and_finish(self, manager):
        job, coalesced = manager.submit(PLAN)
        assert not coalesced and job.total == 2
        finished = manager.wait(job.id, timeout=60)
        assert finished.status == DONE
        progress = finished.progress()
        assert progress["done"] == progress["total"] == 2
        assert progress["error"] is None

    def test_streaming_yields_every_record_in_completion_order(self, manager):
        job, _ = manager.submit(PLAN)
        streamed = list(manager.iter_records(job.id))
        assert [index for index, _, _ in streamed] == [0, 1]
        assert all(not served for _, _, served in streamed)
        assert [record.spec.seed for _, record, _ in streamed] == [3, 4]
        # a late consumer (job already done) still gets the full stream
        assert len(list(manager.iter_records(job.id))) == 2
        # ?start=N resumes mid-stream
        assert len(list(manager.iter_records(job.id, start=1))) == 1

    def test_identical_inflight_submissions_coalesce(self, manager):
        job_a, first = manager.submit(PLAN)
        job_b, second = manager.submit(PLAN)
        assert not first and second
        assert job_a.id == job_b.id and job_a.submissions == 2
        # an equivalent spelling of the same plan coalesces too
        job_c, third = manager.submit(ExperimentPlan(ns=[24], seeds=[3, 4]))
        assert third and job_c.id == job_a.id
        manager.wait(job_a.id, timeout=60)

    def test_resubmit_after_completion_serves_from_store(self, manager):
        job, _ = manager.submit(PLAN)
        manager.wait(job.id, timeout=60)
        executed_before = RUN_COUNTER["executed"]
        again, coalesced = manager.submit(PLAN)
        assert not coalesced and again.id != job.id
        manager.wait(again.id, timeout=60)
        assert RUN_COUNTER["executed"] == executed_before  # zero protocol runs
        assert again.served_from_store == again.total == 2
        assert [r.to_dict() for _, r, _ in sorted(again.records)] == [
            r.to_dict() for _, r, _ in sorted(job.records)
        ]

    def test_invalid_plan_is_rejected_at_submit(self, manager):
        with pytest.raises(ValueError, match="unknown trace mode"):
            manager.submit(ExperimentPlan(ns=(24,), trace="bogus"))

    def test_failing_job_reports_error_and_keeps_serving(self, manager, monkeypatch):
        import repro.experiments.sweep as sweep_mod

        def boom(self, **kwargs):
            raise RuntimeError("worker exploded")

        monkeypatch.setattr(sweep_mod.SweepRunner, "run", boom)
        job, _ = manager.submit(PLAN)
        manager.wait(job.id, timeout=60)
        assert job.status == FAILED
        assert "worker exploded" in job.error
        monkeypatch.undo()
        ok, _ = manager.submit(ExperimentPlan(ns=(24,), seeds=(5,)))
        manager.wait(ok.id, timeout=60)
        assert ok.status == DONE

    def test_unknown_job_raises_key_error(self, manager):
        with pytest.raises(KeyError):
            manager.get("job-99999-nope")

    def test_close_is_idempotent_and_rejects_new_work(self, store):
        mgr = JobManager(store=store, jobs=1)
        job, _ = mgr.submit(ExperimentPlan(ns=(24,), seeds=(3,)))
        mgr.close()
        mgr.close()
        assert mgr.get(job.id).finished  # queued work drains before shutdown
        with pytest.raises(RuntimeError, match="closed"):
            mgr.submit(PLAN)

    def test_manager_without_store_still_runs(self):
        with JobManager(store=None, jobs=1) as mgr:
            job, _ = mgr.submit(ExperimentPlan(ns=(24,), seeds=(3,)))
            mgr.wait(job.id, timeout=60)
            assert job.status == DONE and job.served_from_store == 0


# ----------------------------------------------------------------------
# HTTP layer, over a real loopback socket
# ----------------------------------------------------------------------
@pytest.fixture()
def base(manager):
    with make_server(manager=manager) as server:
        yield "http://%s:%d" % server.server_address[:2]


@pytest.fixture()
def gate(monkeypatch):
    """Holds every job after its first record until ``gate.set()``."""
    gate = threading.Event()
    real_run = SweepRunner.run

    def gated_run(self, on_record=None, **kwargs):
        def held(index, record, served):
            on_record(index, record, served)
            assert gate.wait(timeout=60)

        return real_run(self, on_record=held, **kwargs)

    monkeypatch.setattr(SweepRunner, "run", gated_run)
    yield gate
    gate.set()


def wait_until(predicate, what, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.02)


def connect(base) -> socket.socket:
    host, port = base.removeprefix("http://").split(":")
    return socket.create_connection((host, int(port)), timeout=30)


def raw_exchange(base, request: bytes):
    """Send ``request`` verbatim, read to EOF; ``(status, JSON body)``."""
    with connect(base) as sock:
        sock.sendall(request)
        answer = b"".join(iter(lambda: sock.recv(65536), b""))
    head, _, body = answer.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestHTTPApp:
    def test_submit_poll_stream_and_cached_resubmit(self, base, http):
        payload = PLAN.to_dict()
        status, submitted = http(base + "/plans", payload)
        assert status == 202 and submitted["total"] == 2 and not submitted["coalesced"]
        job_id = submitted["job_id"]

        status, stream = http(f"{base}/jobs/{job_id}/records")
        lines = [json.loads(line) for line in stream.splitlines()]
        assert status == 200 and len(lines) == 2
        assert set(lines[0]) == {"index", "served_from_store", "record"}
        assert {line["record"]["spec"]["seed"] for line in lines} == {3, 4}

        status, progress = http(f"{base}/jobs/{job_id}")
        assert status == 200 and progress["status"] == "done" and progress["done"] == 2
        assert [job["id"] for job in http(base + "/jobs")[1]] == [job_id]

        _, again = http(base + "/plans", payload)
        wait_until(lambda: http(f"{base}/jobs/{again['job_id']}/result")[0] == 200, "job 2")
        assert http(f"{base}/jobs/{again['job_id']}/result")[1]["served_from_store"] == 2

    def test_store_endpoints_and_errors(self, base, http):
        status, stats = http(base + "/store/stats")
        assert status == 200 and stats["schema_version"] >= 1
        assert (stats["lookup_hits"], stats["lookup_misses"]) == (0, 0)
        assert http(base + "/healthz") == (200, {"status": "ok", "jobs": 0, "store": stats})
        assert http(base + "/jobs/nope")[0] == 404
        assert http(base + "/plans", {"ns": [24], "bogus": 1})[0] == 422
        _, submitted = http(base + "/plans", PLAN.to_dict())
        http(f"{base}/jobs/{submitted['job_id']}/records")  # blocks until done
        stats = http(base + "/store/stats")[1]
        assert (stats["lookup_hits"], stats["lookup_misses"]) == (0, 2)
        status, stored = http(base + "/store/records?protocol=aer&limit=1")
        assert status == 200 and len(stored) == 1
        assert http(base + "/store/records?fingerprint=other-fp") == (200, [])
        assert http(base + "/dist/coordinators") == (200, [])

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("wrong_candidate_mode", "bogus"),
            ("knowledge_fraction", -0.2),
            ("knowledge_fraction", 0.95),  # in range, but 23 of 20 correct nodes at n=24
            ("quorum_multiplier", -1.0),
        ],
    )
    def test_plan_with_a_bad_knob_value_is_refused(self, base, http, knob, value):
        status, refused = http(base + "/plans", {"ns": [24], knob: value})
        assert status == 422 and knob in refused["detail"]
        assert http(base + "/jobs") == (200, [])

    def test_stream_resume_is_the_tail_of_the_full_stream(self, base, http):
        _, submitted = http(base + "/plans", PLAN.to_dict())
        records = f"{base}/jobs/{submitted['job_id']}/records"
        _, full = http(records)
        status, tail = http(records + "?start=1")
        assert status == 200 and tail and full.endswith(tail)
        assert [json.loads(line)["index"] for line in tail.splitlines()] == [1]
        assert http(records + "?start=2") == (200, "")

    def test_inflight_submit_coalesces_and_result_waits(self, base, http, gate):
        _, first = http(base + "/plans", PLAN.to_dict())
        job = f"{base}/jobs/{first['job_id']}"
        wait_until(lambda: http(job)[1]["done"] == 1, "the first record")
        assert http(base + "/plans", PLAN.to_dict()) == (
            202, {"job_id": first["job_id"], "coalesced": True, "total": 2}
        )
        status, refused = http(job + "/result")
        assert status == 409 and "running (1/2)" in refused["detail"]
        gate.set()
        wait_until(lambda: http(job + "/result")[0] == 200, "the job to finish")
        result = http(job + "/result")[1]
        assert result["submissions"] == 2
        assert [record["spec"]["seed"] for record in result["records"]] == [3, 4]

    def test_dropped_stream_client_leaves_the_job_running(self, base, http, gate, capsys):
        _, submitted = http(base + "/plans", PLAN.to_dict())
        job = f"{base}/jobs/{submitted['job_id']}"
        with connect(base) as sock, sock.makefile("rb") as reader:
            sock.sendall(f"GET {job.removeprefix(base)}/records HTTP/1.1\r\nHost: t\r\n\r\n".encode())
            assert reader.readline().startswith(b"HTTP/1.1 200")
            headers = dict(line.decode().strip().split(": ", 1) for line in iter(reader.readline, b"\r\n"))
            assert headers["Transfer-Encoding"] == "chunked"
            assert headers["Content-Type"] == "application/x-ndjson"
            first = reader.read(int(reader.readline(), 16))
            assert json.loads(first)["index"] == 0
            # drop mid-stream with a reset, not a polite FIN
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        gate.set()
        wait_until(lambda: http(job)[1]["status"] == "done", "the job to finish")
        status, rest = http(job + "/records?start=1")
        assert status == 200 and [json.loads(line)["index"] for line in rest.splitlines()] == [1]
        wait_until(
            lambda: not any("process_request_thread" in t.name for t in threading.enumerate()),
            "the dropped client's handler thread to end",
        )
        assert "Traceback" not in capsys.readouterr().err

    def test_client_reset_mid_request_is_quiet(self, base, http, capsys):
        """A client that vanishes while its headers are read (a SIGKILLed dist
        worker) ends its handler thread without a traceback."""
        with connect(base) as sock:
            sock.sendall(b"POST /plans HTTP/1.1\r\nHost: t\r\n")  # the headers never end
            wait_until(
                lambda: any("process_request_thread" in t.name for t in threading.enumerate()),
                "the server to take the connection",
            )
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        wait_until(
            lambda: not any("process_request_thread" in t.name for t in threading.enumerate()),
            "the reset client's handler thread to end",
        )
        assert "Traceback" not in capsys.readouterr().err
        assert http(base + "/healthz")[0] == 200

    @pytest.mark.parametrize(
        "method, path, body, expected",
        [
            ("GET", "/healthz", None, 200),
            ("GET", "/jobs", None, 200),
            ("GET", "/store/records?limit=0", None, 200),
            ("GET", "/nope", None, 404),
            ("GET", "/jobs/nope", None, 404),
            ("GET", "/jobs/nope/records", None, 404),
            ("GET", "/jobs/nope/result", None, 404),
            ("GET", "/jobs/nope/records/extra", None, 404),
            ("DELETE", "/nope", None, 404),
            ("GET", "/plans", None, 405),
            ("POST", "/jobs", {}, 405),
            ("PUT", "/plans", {}, 405),
            ("DELETE", "/jobs/nope", None, 405),
            ("POST", "/plans", b"{not json", 422),
            ("POST", "/plans", b"\xff\xfe", 422),
            ("POST", "/plans", [24], 422),
            ("POST", "/plans", "ns=24", 422),
            ("POST", "/plans", {"ns": [24], "bogus": 1}, 422),
            ("POST", "/plans", {"ns": [24], "trace": "bogus"}, 422),
            ("POST", "/plans", {"ns": [24], "params": {"adversary": "silent"}}, 422),
            ("GET", "/jobs/nope/records?start=-1", None, 422),
            ("GET", "/jobs/nope/records?start=one", None, 422),
            ("GET", "/store/records?limit=-1", None, 422),
            ("GET", "/store/records?limit=1.5", None, 422),
            ("GET", "/store/records?limit=" + "9" * 5000, None, 422),
        ],
    )
    def test_status_of_every_kind_of_request(self, base, http, method, path, body, expected):
        status, answer = http(base + path, body, method=method)
        assert status == expected
        assert status < 400 or set(answer) == {"detail"}

    @pytest.mark.parametrize(
        "headers, expected",
        [
            ("", 411),
            ("Content-Length: -5\r\n", 411),
            ("Content-Length: many\r\n", 411),
            # refused on the header alone: the server would block on a read
            (f"Content-Length: {2 << 20}\r\n", 413),
        ],
    )
    def test_body_length_is_checked_before_reading(self, base, headers, expected):
        status, answer = raw_exchange(base, f"POST /plans HTTP/1.1\r\nHost: t\r\n{headers}\r\n".encode())
        assert status == expected and set(answer) == {"detail"}

    def test_route_exception_is_a_500_and_the_server_keeps_serving(self, base, http, manager, monkeypatch, capsys):
        def boom(job_id):
            raise RuntimeError("route exploded")

        monkeypatch.setattr(manager, "get", boom)
        assert http(base + "/jobs/any") == (500, {"detail": "RuntimeError: route exploded"})
        assert "route exploded" in capsys.readouterr().err  # the traceback is reported
        assert http(base + "/healthz")[0] == 200

    def test_keep_alive_requests_do_not_wait_for_delayed_acks(self, base):
        """Headers and body are two writes; with Nagle on, each answer would
        wait out the client's ~40 ms delayed ACK."""
        host, port = base.removeprefix("http://").split(":")
        connection = HTTPConnection(host, int(port), timeout=30)
        try:
            started = time.perf_counter()
            for _ in range(20):
                connection.request("GET", "/jobs")
                assert connection.getresponse().read() == b"[]"
            elapsed = time.perf_counter() - started
        finally:
            connection.close()
        assert elapsed < 0.4, f"20 keep-alive requests took {elapsed:.3f} s"

    def test_access_log_goes_to_the_service_logger(self, base, http, caplog):
        with caplog.at_level(logging.INFO, logger="repro.service"):
            assert http(base + "/healthz")[0] == 200
        assert any('"GET /healthz HTTP/1.1" 200' in r.getMessage() for r in caplog.records)

    def test_storeless_service_answers_404_on_the_store_routes(self, http):
        with JobManager(store=None, jobs=1) as mgr, make_server(manager=mgr) as server:
            base = "http://%s:%d" % server.server_address[:2]
            assert http(base + "/healthz")[1]["store"] is None
            for path in ("/store/stats", "/store/records"):
                assert http(base + path) == (404, {"detail": "service runs without a store"})


# ----------------------------------------------------------------------
# lifecycle: what make_server creates it releases; the serve command
# ----------------------------------------------------------------------
def test_make_server_owns_and_releases_what_it_creates(tmp_path, http):
    with make_server(store_path=str(tmp_path / "owned.sqlite"), jobs=1) as server:
        base = "http://%s:%d" % server.server_address[:2]
        assert http(base + "/store/stats")[1]["records"] == 0
        owned = server.app
    server.close()  # idempotent
    with pytest.raises(RuntimeError, match="closed"):
        owned.submit(PLAN)
    with pytest.raises(AttributeError):
        owned.store.stats()  # the store's connection went with it
    with pytest.raises(OSError):
        http(base + "/healthz")


def test_shared_manager_outlives_its_server(manager):
    with make_server(manager=manager):
        pass
    job, _ = manager.submit(ExperimentPlan(ns=(24,), seeds=(3,)))
    assert manager.wait(job.id, timeout=60).status == DONE


def test_serve_cli_reports_a_taken_port_cleanly(tmp_path, capsys):
    from repro.experiments.cli import main as cli_main

    with socket.create_server(("127.0.0.1", 0)) as taken:
        port = taken.getsockname()[1]
        argv = ["serve", "--port", str(port), "--store", str(tmp_path / "s.sqlite")]
        assert cli_main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_serve_cli_prints_its_bound_address_and_stops_on_signal(tmp_path, http, signum):
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--jobs", "1",
         "--store", str(tmp_path / "cli.sqlite")],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        banner = server.stdout.readline().split()
        assert banner[:2] == ["serving", "on"] and not banner[2].endswith(":0")
        assert http(banner[2] + "/healthz")[0] == 200
        server.send_signal(signum)
        assert server.wait(timeout=30) == 0
    finally:
        server.kill()
        server.wait()


def test_importing_the_api_does_not_load_the_http_layer():
    code = "import sys, repro.api; sys.exit('http.server' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
