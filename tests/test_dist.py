"""Distributed sweep executor: lease board, HTTP routes, end-to-end runs.

The correctness contract of :mod:`repro.dist`, each half pinned here:

* **Lease state machine** — claim/heartbeat/expiry/re-issue/duplicate-
  completion races, driven deterministically through an injectable clock
  (no sleeps) on the pure :class:`~repro.dist.board.ShardBoard` and then
  again over real loopback HTTP with two :class:`~repro.dist.protocol.
  CoordinatorClient` connections against one coordinator.
* **Exactly-once persistence** — at-least-once execution (an expired
  lease's shard is re-issued) never produces duplicate store rows or
  duplicate records; a ``complete`` request for a shard that does not
  exist, with another spec's record or with a malformed body is refused;
  the ack follows the flush.
* **Byte-identical reassembly** — ``run_distributed_sweep`` (in-process
  workers and real ``dist-worker`` subprocesses) and ``sweep --distributed
  --canonical`` serialise byte-for-byte identically to a serial run of the
  same plan.  (Store/resume serving on the dist executor is pinned by the
  executor-contract matrix in ``tests/test_experiments_sweep.py``.)
* **Fingerprint check** — a worker running different code is refused by
  name on every route, so it never leases a shard.
"""

from __future__ import annotations

import contextlib
import json
import socket
import subprocess
import sys
import threading

import pytest

from repro.dist import (
    CoordinatorClient,
    DistCoordinator,
    DistributedSweepError,
    ProtocolError,
    ShardBoard,
    WorkerRejectedError,
    active_coordinators,
    coordinator_status,
    parse_address,
    run_distributed_sweep,
    run_worker,
)
from repro.experiments.cli import main as cli_main
from repro.experiments.plan import ExperimentPlan, ExperimentSpec
from repro.experiments.sweep import SweepResult, SweepRunner, execute_spec
from repro.store import ResultStore


@pytest.fixture(autouse=True)
def _pinned_fingerprint(monkeypatch):
    """Pin the code fingerprint so handshakes never depend on git state."""
    monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "dist-test-fp")


PLAN = ExperimentPlan(ns=(24,), adversaries=("none", "silent"), seeds=(3,))


class FakeClock:
    """A settable monotonic clock for deterministic lease races."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _board(clock=None, lease_timeout=10.0, specs=None):
    return ShardBoard(
        specs if specs is not None else PLAN.specs(),
        lease_timeout=lease_timeout,
        clock=clock,
    )


@contextlib.contextmanager
def _serving(specs, **kwargs):
    """A started coordinator plus the dict a background thread collects its
    accepted completions into — the consumer role ``SweepRunner.run`` plays
    (without one, an accepted ``complete`` is never acknowledged)."""
    with DistCoordinator(specs, **kwargs) as coordinator:
        records = {}
        consumer = threading.Thread(
            target=lambda: records.update(coordinator.completions()),
            daemon=True,
        )
        consumer.start()
        yield coordinator, records, consumer


# ----------------------------------------------------------------------
# the lease state machine (no sockets, no sleeps)
# ----------------------------------------------------------------------
class TestShardBoard:
    def test_claims_issue_in_plan_order(self):
        board = _board(FakeClock())
        first = board.claim("w1")
        second = board.claim("w2")
        assert (first.kind, second.kind) == ("lease", "lease")
        assert (first.shard.index, second.shard.index) == (0, 1)
        assert first.shard.lease_id != second.shard.lease_id

    def test_all_leased_means_wait_with_bounded_retry(self):
        clock = FakeClock()
        board = _board(clock, lease_timeout=10.0)
        board.claim("w1")
        board.claim("w1")
        result = board.claim("w2")
        assert result.kind == "wait"
        assert 0.05 <= result.retry_after <= 1.0

    def test_heartbeat_extends_the_deadline(self):
        clock = FakeClock()
        board = _board(clock, lease_timeout=10.0)
        lease = board.claim("w1").shard.lease_id
        clock.advance(8.0)
        assert board.heartbeat(lease)  # extended to now+10
        clock.advance(8.0)  # 16s after claim: dead without the beat
        assert board.claim("w2").shard.index == 1  # shard 0 still live

    def test_expired_lease_is_reissued_and_counted(self):
        clock = FakeClock()
        board = _board(clock, lease_timeout=10.0)
        first = board.claim("w1").shard
        old_lease = first.lease_id
        clock.advance(11.0)
        reissued = board.claim("w2").shard
        assert reissued.index == 0
        assert reissued.worker == "w2"
        assert reissued.attempts == 2
        assert board.counters.expired_leases == 1
        assert not board.heartbeat(old_lease)  # the old lease is gone

    def test_duplicate_completion_is_discarded_first_wins(self):
        clock = FakeClock()
        board = _board(clock, lease_timeout=10.0)
        board.claim("w1")
        clock.advance(11.0)
        board.claim("w2")  # re-issue after expiry
        # the original (expired) attempt finishes first: still accepted
        assert board.complete(0, worker="w1")
        assert not board.complete(0, worker="w2")
        assert board.counters.duplicate_completions == 1
        assert board.counters.completed_by == {"w1": 1}

    def test_drained_and_plan_order_records(self):
        board = _board(FakeClock())
        for _ in range(2):
            board.complete(board.claim("w1").shard.index, worker="w1")
        assert board.claim("w1").kind == "drained"
        assert board.finished
        assert [shard.spec for shard in board.shards] == list(PLAN.specs())
        assert board.counts() == {"total": 2, "pending": 0, "leased": 0, "done": 2}

    def test_empty_plan_is_born_finished(self):
        board = _board(FakeClock(), specs=[])
        assert board.finished
        assert board.claim("w1").kind == "drained"


def _raw(address, request: bytes):
    """Send ``request`` verbatim to a coordinator, read to EOF (every error
    answer closes the connection); ``(status, JSON body)``."""
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(request)
        answer = b"".join(iter(lambda: sock.recv(65536), b""))
    head, _, body = answer.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


# ----------------------------------------------------------------------
# the HTTP routes against a live coordinator
# ----------------------------------------------------------------------
class TestCoordinatorTCP:
    def test_lease_race_over_tcp_reassembles_identically(self):
        """Two workers race one shard after an expiry — the duplicate is
        discarded and the reassembled result matches a serial run."""
        clock = FakeClock()
        serial = SweepRunner(PLAN, jobs=1).run()
        with _serving(PLAN.specs(), lease_timeout=10.0, clock=clock) as (
            coord, records, consumer,
        ):
            address = coord.address
            with CoordinatorClient(address, worker="w1") as w1, CoordinatorClient(
                address, worker="w2"
            ) as w2:
                w1.hello()
                w2.hello()
                lease0 = w1.claim()
                lease1 = w2.claim()
                assert (lease0["index"], lease1["index"]) == (0, 1)
                record1 = execute_spec(PLAN.specs()[1])
                assert w2.complete(lease1["lease"], 1, record1.to_dict())
                clock.advance(11.0)  # w1's lease lapses unheartbeated
                assert not w1.heartbeat(lease0["lease"])
                retry = w2.claim()
                assert retry["index"] == 0 and retry["attempt"] == 2
                record0 = execute_spec(PLAN.specs()[0])
                # slow original attempt lands first, retry is the duplicate
                assert w1.complete(lease0["lease"], 0, record0.to_dict())
                assert not w2.complete(retry["lease"], 0, record0.to_dict())
            status = coord.status()
            assert status["expired_leases"] == 1
            assert status["duplicate_completions"] == 1
            consumer.join(timeout=5.0)
        assert sorted(records) == [0, 1]  # each shard delivered exactly once
        result = SweepResult(PLAN, [records[0], records[1]], 0.0, 1)
        assert json.dumps(result.canonical_dict()) == json.dumps(
            serial.canonical_dict()
        )

    def test_complete_frame_is_validated(self):
        """A client that never claimed anything cannot mark a shard done
        with another spec's record, and an index off the board is an error
        answer, not a dead handler thread."""
        other = execute_spec(PLAN.specs()[0]).to_dict()
        with DistCoordinator(PLAN.specs()) as coord:
            with CoordinatorClient(coord.address, worker="rogue") as client:
                client.hello()
                with pytest.raises(ProtocolError, match="does not answer shard 1"):
                    client.complete("L?", 1, other)
                for index in (-1, 99):  # -1 used to wrap onto the last shard
                    with pytest.raises(ProtocolError, match=f"no shard {index}"):
                        client.complete("L?", index, other)
                with pytest.raises(ProtocolError, match="bad complete frame"):
                    client.complete("L?", 0, {"spec": other["spec"]})
                # the connection survived and nothing was marked done
                assert client.claim()["index"] == 0
            assert coord.status()["done"] == 0
            assert coord.status()["duplicate_completions"] == 0

    def test_complete_is_acknowledged_only_after_the_store_flush(self, tmp_path):
        """The one path flushes before the worker sees ``accepted: true``:
        a second store connection, opened by the worker the moment
        ``complete()`` returns, already finds the record."""
        path = str(tmp_path / "s.sqlite")
        found = []

        def by_hand(pending):  # an executor whose one TCP worker is this test
            with DistCoordinator([spec for _, spec in pending]) as coord:

                def work():
                    with CoordinatorClient(coord.address, worker="w") as client:
                        client.hello()
                        while (lease := client.claim())["type"] == "lease":
                            spec = ExperimentSpec.from_dict(lease["spec"])
                            record = execute_spec(spec).to_dict()
                            assert client.complete(
                                lease["lease"], lease["index"], record
                            )
                            with ResultStore(path) as reader:
                                found.append(reader.get_many([spec])[0] is not None)

                worker = threading.Thread(target=work, daemon=True)
                worker.start()
                for local, record in coord.completions():
                    yield pending[local][0], record
                worker.join(timeout=10.0)

        by_hand.jobs = 1
        with ResultStore(path) as store:
            result = SweepRunner(PLAN).run(store=store, executor=by_hand)
        assert found == [True, True]
        assert result.served_from_store == 0

    def test_stale_code_worker_is_rejected_by_name(self):
        with DistCoordinator(PLAN.specs()) as coord:
            client = CoordinatorClient(
                coord.address, worker="stale-w", fingerprint="other-fp"
            )
            with client:
                with pytest.raises(WorkerRejectedError) as excinfo:
                    client.hello()
            message = str(excinfo.value)
            assert "stale-w" in message
            assert "other-fp" in message and "dist-test-fp" in message
            # run_worker surfaces the same rejection
            with pytest.raises(WorkerRejectedError):
                run_worker(coord.address, worker_id="w", fingerprint="other-fp")

    def test_stale_fingerprint_is_refused_on_every_route(self):
        """Without ``hello``, with a wrong or a missing fingerprint, claim /
        heartbeat / complete are refused by name and no shard is leased."""
        record = execute_spec(PLAN.specs()[0]).to_dict()
        with DistCoordinator(PLAN.specs()) as coord:
            with CoordinatorClient(coord.address, worker="rude", fingerprint="other-fp") as client:
                for call in (
                    client.claim,
                    lambda: client.heartbeat("L1"),
                    lambda: client.complete("L1", 0, record),
                ):
                    with pytest.raises(WorkerRejectedError, match="'rude' runs 'other-fp'"):
                        call()
            for route in ("claim", "heartbeat", "complete"):
                body = json.dumps({"worker": "rude", "lease": "L1", "index": 0, "record": record})
                status, answer = _raw(coord.address, (
                    f"POST /dist/{route} HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n{body}"
                ).encode())
                assert status == 403 and "'rude' runs ''" in answer["detail"]
            assert coord.status()["leased"] == 0 and coord.status()["done"] == 0

    @pytest.mark.parametrize(
        "headers, body, expected",
        [
            ("", b"", 411),
            # refused on the header alone: the server would block on a read
            (f"Content-Length: {2 << 20}\r\n", b"", 413),
            ("Content-Length: 9\r\n", b"{not json", 422),
            ("Content-Length: 8\r\n", b'["dist"]', 422),
        ],
    )
    def test_complete_body_is_checked(self, headers, body, expected):
        with DistCoordinator(PLAN.specs()) as coord:
            request = f"POST /dist/complete HTTP/1.1\r\nHost: t\r\n{headers}\r\n"
            status, answer = _raw(coord.address, request.encode() + body)
            assert status == expected and set(answer) == {"detail"}
            host, port = coord.address
            assert coordinator_status(f"{host}:{port}")["done"] == 0

    def test_status_needs_no_handshake_and_registry_lists_it(self):
        with DistCoordinator(PLAN.specs()) as coord:
            host, port = coord.address
            status = coordinator_status(f"{host}:{port}")
            assert status["total"] == 2 and not status["finished"]
            assert any(
                c["address"] == f"{host}:{port}" for c in active_coordinators()
            )
        assert all(
            c["address"] != f"{host}:{port}" for c in active_coordinators()
        )

    def test_parse_address(self):
        assert parse_address("127.0.0.1:7341") == ("127.0.0.1", 7341)
        assert parse_address(("h", 1)) == ("h", 1)
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_address("7341")


# ----------------------------------------------------------------------
# end-to-end distributed sweeps
# ----------------------------------------------------------------------
class TestDistributedSweep:
    def test_in_process_workers_match_serial_byte_for_byte(self, capfd):
        serial = SweepRunner(PLAN, jobs=1).run()
        result = run_distributed_sweep(PLAN, workers=2, in_process=True)
        assert json.dumps(result.canonical_dict()) == json.dumps(
            serial.canonical_dict()
        )
        assert result.jobs == 2
        assert "/dist/" not in capfd.readouterr().err  # no access log lines

    def test_worker_subprocesses_match_serial(self, tmp_path):
        serial = SweepRunner(PLAN, jobs=1).run()
        with ResultStore(str(tmp_path / "s.sqlite")) as store:
            result = run_distributed_sweep(
                PLAN, workers=2, store=store, lease_timeout=15.0
            )
            assert store.stats()["records"] == len(PLAN)
        assert json.dumps(result.canonical_dict()) == json.dumps(
            serial.canonical_dict()
        )

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            run_distributed_sweep(PLAN, workers=0)

    def test_dead_workers_raise_instead_of_hanging(self, monkeypatch):
        monkeypatch.setattr(
            "repro.dist.launch.spawn_worker",
            lambda *args, **kwargs: subprocess.Popen(
                [sys.executable, "-c", "raise SystemExit(3)"]
            ),
        )
        with pytest.raises(DistributedSweepError, match=r"exit codes \[3\]"):
            run_distributed_sweep(PLAN, workers=2, max_respawns=1)
        assert active_coordinators() == []  # the coordinator was closed


# ----------------------------------------------------------------------
# CLI: sweep --distributed / --canonical, dist-worker
# ----------------------------------------------------------------------
class TestDistCLI:
    SWEEP = ["sweep", "--ns", "24", "--adversaries", "none,silent",
             "--seeds", "3", "--no-store", "--jobs", "1"]

    def test_distributed_sweep_is_byte_identical_to_serial(self, tmp_path, capsys):
        serial_out = str(tmp_path / "serial.json")
        dist_out = str(tmp_path / "dist.json")
        assert cli_main([*self.SWEEP, "--canonical", "--out", serial_out]) == 0
        assert (
            cli_main(
                [*self.SWEEP, "--canonical", "--out", dist_out,
                 "--distributed", "2", "--lease-timeout", "15"]
            )
            == 0
        )
        assert "distributed workers" in capsys.readouterr().out
        with open(serial_out, "rb") as a, open(dist_out, "rb") as b:
            assert a.read() == b.read()

    def test_canonical_zeroes_volatile_fields(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert cli_main([*self.SWEEP, "--canonical", "--out", str(out)]) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["total_seconds"] == 0.0 and data["jobs"] == 0
        assert all(r["seconds"] == 0.0 for r in data["records"])

    def test_dist_worker_command_drains_a_coordinator(self, capsys):
        with _serving(PLAN.specs(), lease_timeout=15.0) as (coordinator, _, _):
            host, port = coordinator.address
            code = cli_main(
                ["dist-worker", f"{host}:{port}", "--id", "cli-w", "--poll", "0.1"]
            )
            assert code == 0
            assert "executed 2 shard(s)" in capsys.readouterr().out
            assert coordinator.board.finished
            assert coordinator.status()["completed_by"] == {"cli-w": 2}

    def test_dist_worker_command_reports_rejection(self, monkeypatch, capsys):
        with DistCoordinator(PLAN.specs()) as coordinator:
            host, port = coordinator.address
            monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "stale-fp")
            assert cli_main(["dist-worker", f"{host}:{port}"]) == 2
            assert "fingerprint mismatch" in capsys.readouterr().err

    def test_dist_worker_command_without_a_coordinator(self, capsys):
        assert cli_main(["dist-worker", "127.0.0.1:9", "--poll", "0.1"]) == 2
        assert "cannot work against" in capsys.readouterr().err


# ----------------------------------------------------------------------
# concurrent in-process workers racing one coordinator
# ----------------------------------------------------------------------
def test_two_worker_threads_split_the_plan():
    plan = ExperimentPlan(ns=(24,), adversaries=("none", "silent"), seeds=(3, 4))
    with _serving(plan.specs(), lease_timeout=15.0) as (
        coordinator, records, consumer,
    ):
        host, port = coordinator.address
        counts = {}

        def work(name):
            counts[name] = run_worker(
                (host, port), worker_id=name, poll_interval=0.05
            )

        threads = [
            threading.Thread(target=work, args=(f"t{i}",)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert coordinator.board.finished
        assert sum(counts.values()) == len(plan)  # nothing executed twice
        consumer.join(timeout=5.0)
    assert [records[i].spec for i in sorted(records)] == list(plan.specs())


# ----------------------------------------------------------------------
# the service endpoint
# ----------------------------------------------------------------------
def test_service_lists_live_coordinators(http):
    from repro.service import JobManager, make_server

    with JobManager(store=None, jobs=1) as manager, make_server(manager=manager) as server:
        url = "http://%s:%d/dist/coordinators" % server.server_address[:2]
        assert http(url) == (200, [])
        with DistCoordinator(PLAN.specs()) as coordinator:
            host, port = coordinator.address
            status, listed = http(url)
            assert status == 200
            assert [c["address"] for c in listed] == [f"{host}:{port}"]
            assert listed[0]["total"] == len(PLAN)
        assert http(url) == (200, [])
