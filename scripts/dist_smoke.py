#!/usr/bin/env python
"""End-to-end smoke test of the distributed sweep executor over real HTTP.

Runs a 6-spec plan twice through ``SweepRunner.run`` — once inline, once on
a :class:`~repro.dist.DistExecutor` (coordinator plus two real ``python -m
repro dist-worker`` subprocesses) against a result store — **kills one
worker with SIGKILL** from ``on_record`` when the first fresh record
arrives, and asserts:

* the surviving worker (plus lease re-issue of the victim's shard) still
  drains the plan;
* the canonical JSON of both runs is byte-for-byte identical;
* the result store holds exactly one row per spec (zero duplicates even
  with at-least-once execution).

Exit code 0 on success; any assertion or executor error exits non-zero.
This is the CI ``dist-smoke`` job; it also runs fine locally::

    python scripts/dist_smoke.py
"""

from __future__ import annotations

import os
import sys
import tempfile

# a fixed fingerprint so coordinator and worker subprocesses always agree,
# even on a dirty CI checkout
os.environ["REPRO_CODE_FINGERPRINT"] = "dist-smoke-fp"

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.dist import DistExecutor  # noqa: E402
from repro.experiments.plan import ExperimentPlan  # noqa: E402
from repro.experiments.sweep import SweepRunner  # noqa: E402
from repro.store import ResultStore  # noqa: E402

PLAN = ExperimentPlan(
    ns=(32, 48, 64), adversaries=("none", "silent"), modes=("sync",), seeds=(1,)
)  # 3 ns x 2 adversaries = 6 specs


def main() -> int:
    specs = len(PLAN)
    serial = SweepRunner(PLAN, jobs=1).run()
    executor = DistExecutor(workers=2, lease_timeout=2.0, worker_poll=0.1)
    killed = []

    def kill_a_worker(index, record, served) -> None:
        # first fresh record: SIGKILL a worker — whatever lease it holds
        # must expire and be re-issued to the survivor
        if not killed:
            victim = executor.procs[0]
            victim.kill()
            victim.wait(timeout=10.0)
            killed.append(victim.pid)
            print(f"killed worker pid {victim.pid} after record {index}")

    with tempfile.TemporaryDirectory() as tmp:
        serial_path = os.path.join(tmp, "serial.json")
        dist_path = os.path.join(tmp, "dist.json")
        serial.save(serial_path, canonical=True)

        with ResultStore(os.path.join(tmp, "store.sqlite")) as store:
            result = SweepRunner(PLAN).run(
                store=store, executor=executor, on_record=kill_a_worker
            )
            rows = store.stats()["records"]
        assert killed, "no fresh record arrived, so no worker was killed"

        result.save(dist_path, canonical=True)
        with open(serial_path, "rb") as a, open(dist_path, "rb") as b:
            assert a.read() == b.read(), "distributed result diverged from serial"
        assert rows == specs, (
            f"expected exactly {specs} store rows, found {rows} "
            f"(duplicate persistence?)"
        )
    print(
        f"dist smoke OK: byte-identical after SIGKILL, "
        f"{specs} specs, zero duplicate store rows"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
