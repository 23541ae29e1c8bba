"""Tests for the experiment-sweep subsystem (plans, runner, persistence, CLI).

``TestExecutorContract`` is the one matrix that pins what
``SweepRunner.run`` owns — serving, flushing, ``on_record``, counters, plan
order — identically over every executor (inline, pool, dist).
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import (
    ExperimentPlan,
    ExperimentRecord,
    ExperimentSpec,
    SweepResult,
    SweepRunner,
    execute_spec,
)
from repro.dist import DistExecutor, active_coordinators
from repro.experiments.cli import main as cli_main
from repro.experiments.sweep import RUN_COUNTER, InlineExecutor, PoolExecutor, WorkerPool
from repro.store import ResultStore, spec_key

SMALL_PLAN = ExperimentPlan(
    ns=(24,),
    adversaries=("none", "silent"),
    modes=("sync",),
    seeds=(3,),
)


class TestPlan:
    def test_grid_expansion_order(self):
        plan = ExperimentPlan(
            ns=(24, 32), adversaries=("none", "silent"), modes=("sync", "async"), seeds=(0, 1)
        )
        specs = plan.specs()
        assert len(specs) == len(plan) == 16
        # n-major, then adversary, mode, seed
        assert specs[0] == ExperimentSpec(n=24, adversary="none", mode="sync", seed=0)
        assert specs[1].seed == 1
        assert specs[2].mode == "async"
        assert specs[8].n == 32

    def test_lists_are_normalised_to_tuples(self):
        plan = ExperimentPlan(ns=[24], adversaries=["none"], modes=["sync"], seeds=[0])
        assert plan.ns == (24,)

    def test_extra_specs_are_appended(self):
        extra = ExperimentSpec(n=48, adversary="cornering", mode="async", seed=9)
        plan = ExperimentPlan(ns=(24,), extra_specs=(extra,))
        assert plan.specs()[-1] == extra
        assert len(plan) == 2

    def test_spec_key_and_roundtrip(self):
        spec = ExperimentSpec(n=64, adversary="silent", mode="async", seed=4)
        assert spec.key == "async:silent:n64:s4"
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        rushing = spec.with_(mode="sync", rushing=True)
        assert rushing.key == "sync-rushing:silent:n64:s4"

    def test_plan_roundtrip(self):
        plan = ExperimentPlan(
            ns=(24,), adversaries=("none",), seeds=(0, 1),
            extra_specs=(ExperimentSpec(n=32),),
        )
        assert ExperimentPlan.from_dict(plan.to_dict()) == plan


class TestExecuteSpec:
    def test_record_matches_direct_run(self, direct_aer_run):
        spec = ExperimentSpec(n=24, adversary="none", mode="sync", seed=3)
        record = execute_spec(spec)
        result = direct_aer_run(24, adversary="none", mode="sync", seed=3)
        assert record.agreement == result.agreement_reached
        assert record.rounds == result.rounds
        assert record.total_messages == result.metrics_all.total_messages
        assert record.total_bits == result.metrics_all.total_bits
        assert record.decided_count == len(result.decisions)
        assert record.correct_count == len(result.correct_ids)
        assert record.decided_fraction == pytest.approx(1.0)
        assert record.seconds > 0

    def test_record_roundtrip_and_row(self):
        record = execute_spec(ExperimentSpec(n=24, seed=3))
        assert ExperimentRecord.from_dict(record.to_dict()) == record
        row = record.row()
        assert row["n"] == 24 and row["agreement"] == 1
        assert record.stopped_by is None and "stopped_by" not in record.to_dict()

    def test_round_cap_is_a_named_outcome(self):
        record = execute_spec(ExperimentSpec(n=24, seed=3, params={"max_rounds": 2}))
        assert record.stopped_by == "max_rounds" and not record.agreement
        assert record.to_dict()["stopped_by"] == "max_rounds"
        assert ExperimentRecord.from_dict(record.to_dict()) == record
        assert record.row()["agreement"] == "truncated (max_rounds)"


class TestSweepRunner:
    def test_serial_and_parallel_agree(self):
        serial = SweepRunner(SMALL_PLAN, jobs=1).run()
        parallel = SweepRunner(SMALL_PLAN, jobs=2).run()
        assert serial.jobs == 1 and parallel.jobs == 2
        assert len(serial.records) == len(parallel.records) == 2
        for a, b in zip(serial.records, parallel.records):
            assert a.spec == b.spec  # plan order preserved under the pool
            assert a.total_bits == b.total_bits
            assert a.rounds == b.rounds
            assert a.agreement == b.agreement

    def test_filter_and_rows(self):
        sweep = SweepRunner(SMALL_PLAN, jobs=1).run()
        silent = sweep.filter(adversary="silent")
        assert [r.spec.adversary for r in silent] == ["silent"]
        assert len(sweep.rows()) == 2

    def test_save_and_load_roundtrip(self, tmp_path):
        sweep = SweepRunner(SMALL_PLAN, jobs=1).run()
        path = tmp_path / "sweep.json"
        sweep.save(str(path))
        loaded = SweepResult.load(str(path))
        assert loaded.plan == sweep.plan
        assert loaded.records == sweep.records
        assert loaded.jobs == sweep.jobs

    def test_unordered_dispatch_reassembles_plan_order(self):
        """Mixed-duration specs come back in plan order despite unordered dispatch."""
        from repro.experiments import ExperimentPlan

        plan = ExperimentPlan(ns=(40, 24, 32), modes=("sync",), seeds=(3,))
        parallel = SweepRunner(plan, jobs=2).run()
        serial = SweepRunner(plan, jobs=1).run()
        assert [r.spec.n for r in parallel.records] == [40, 24, 32]
        for a, b in zip(serial.records, parallel.records):
            assert a.spec == b.spec
            assert a.total_bits == b.total_bits

    def test_private_pool_starts_no_more_workers_than_pending(self, monkeypatch):
        sizes = []
        acquire = WorkerPool.acquire

        def spy(pool, jobs):
            worker_pool = acquire(pool, jobs)
            sizes.append(pool.size)
            return worker_pool

        monkeypatch.setattr(WorkerPool, "acquire", spy)
        result = SweepRunner(SMALL_PLAN, jobs=8).run()
        # two specs pending: two workers started, and the label says so
        assert sizes == [2] and result.jobs == 2


class _Spy:
    """An executor wrapper that records what it was handed."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    @property
    def jobs(self):
        return self.inner.jobs

    def __call__(self, pending):
        self.calls.append(list(pending))
        return self.inner(pending)


class TestExecutorContract:
    PLAN = ExperimentPlan(ns=(24,), adversaries=("none", "silent"), seeds=(3, 4))

    EXECUTORS = {
        "inline": lambda: InlineExecutor(),
        "pool": lambda: PoolExecutor(2),
        "dist": lambda: DistExecutor(2, in_process=True, worker_poll=0.05),
    }
    #: name → (plan indices already in the store, indices in the resume seed)
    STATES = {
        "cold": ((), ()),
        "store_served": ((0, 1, 2, 3), ()),
        "store_and_resume": ((0,), (0, 1, 2)),  # the store wins index 0
        "partially_warm": ((1, 3), ()),
    }

    @pytest.fixture(scope="class")
    def reference(self):
        return SweepRunner(self.PLAN, jobs=1).run()

    @pytest.mark.parametrize("state", STATES)
    @pytest.mark.parametrize("kind", EXECUTORS)
    def test_one_path_over_every_executor(
        self, kind, state, reference, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "contract-fp")
        stored, seeded = self.STATES[state]
        served = sorted(set(stored) | set(seeded))
        pending = [i for i in range(len(self.PLAN)) if i not in served]
        seeds = {spec_key(reference.records[i].spec): reference.records[i] for i in seeded}
        executor = _Spy(self.EXECUTORS[kind]())
        events = []
        with ResultStore(str(tmp_path / "s.sqlite")) as store:
            store.put_many(reference.records[i] for i in stored)

            def on_record(index, record, was_served):
                # fresh records are flushed before anyone hears about them
                assert store.get_many([record.spec])[0] is not None
                events.append((index, was_served))

            executed_before = RUN_COUNTER["executed"]
            result = SweepRunner(self.PLAN).run(
                store=store, seed_records=seeds, on_record=on_record, executor=executor
            )
            assert store.stats()["records"] == len(self.PLAN)  # one row per spec
        assert result.canonical_dict() == reference.canonical_dict()
        # canonical_dict zeroes seconds; a served record keeps its original one
        assert [result.records[i].to_dict() for i in served] == [
            reference.records[i].to_dict() for i in served
        ]
        assert result.served_from_store == len(served)
        assert result.served_from_resume == len(set(seeded) - set(stored))
        # served records first (plan order), then each fresh index once
        assert events[: len(served)] == [(i, True) for i in served]
        assert sorted(events[len(served):]) == [(i, False) for i in pending]
        if pending:
            assert [[i for i, _ in call] for call in executor.calls] == [pending]
            assert result.jobs == executor.jobs
        else:  # nothing pending: no executor call, so no worker of any kind
            assert executor.calls == []
            assert result.jobs == 1
            assert RUN_COUNTER["executed"] == executed_before
        assert active_coordinators() == []


class TestWorkerPool:
    def test_pool_is_reused_across_plans(self):
        from repro.experiments import ExperimentPlan
        from repro.experiments.sweep import WorkerPool

        plan_a = ExperimentPlan(ns=(24,), modes=("sync",), seeds=(3, 4))
        plan_b = ExperimentPlan(ns=(24,), modes=("sync",), seeds=(5, 6))
        with WorkerPool() as pool:
            first = SweepRunner(plan_a, jobs=2).run(pool=pool)
            inner = pool._pool
            assert pool.size == 2
            second = SweepRunner(plan_b, jobs=2).run(pool=pool)
            assert pool._pool is inner  # same warm workers, no respawn
        assert pool.size == 0  # context exit tears the pool down
        assert [r.spec.seed for r in first.records] == [3, 4]
        assert [r.spec.seed for r in second.records] == [5, 6]

    def test_pool_grows_for_larger_plans(self):
        from repro.experiments import ExperimentPlan
        from repro.experiments.sweep import WorkerPool

        with WorkerPool() as pool:
            SweepRunner(
                ExperimentPlan(ns=(24,), modes=("sync",), seeds=(3,)), jobs=2
            ).run(pool=pool)
            assert pool.size == 2
            SweepRunner(
                ExperimentPlan(ns=(24,), modes=("sync",), seeds=(3, 4, 5)), jobs=3
            ).run(pool=pool)
            assert pool.size == 3

    def test_pooled_results_match_serial(self):
        from repro.experiments.sweep import WorkerPool

        serial = SweepRunner(SMALL_PLAN, jobs=1).run()
        with WorkerPool() as pool:
            pooled = SweepRunner(SMALL_PLAN, jobs=2).run(pool=pool)
        for a, b in zip(serial.records, pooled.records):
            assert a.spec == b.spec
            assert a.total_bits == b.total_bits
            assert a.rounds == b.rounds


class TestCLI:
    def test_run_command(self, capsys):
        assert cli_main(["run", "--n", "24", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "experiment sync:none:n24:s3" in out

    def test_sweep_command_writes_json(self, tmp_path, capsys):
        out_path = tmp_path / "out.json"
        code = cli_main([
            "sweep", "--ns", "24", "--adversaries", "none", "--modes", "sync",
            "--seeds", "3", "--jobs", "1", "--out", str(out_path),
        ])
        assert code == 0
        data = json.loads(out_path.read_text(encoding="utf-8"))
        assert len(data["records"]) == 1
        assert data["records"][0]["spec"]["n"] == 24
        assert "sweep of 1 experiments" in capsys.readouterr().out


class TestWorkerCrashDetection:
    """A pool worker dying mid-spec must fail the sweep, not hang it."""

    @pytest.fixture()
    def suicide_plan(self):
        import multiprocessing

        from repro.protocols import PROTOCOLS, ProtocolAdapter, RunResult, register_protocol

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork so pool workers inherit the test protocol")

        @register_protocol
        class SuicideProtocol(ProtocolAdapter):
            name = "suicide_test"
            params = {}

            def run(self, spec):
                if spec.seed == 4:  # one spec kills its worker uncleanly
                    import os
                    import signal

                    os.kill(os.getpid(), signal.SIGKILL)
                return RunResult(
                    protocol=self.name, n=spec.n, agreement=True,
                    decided_count=spec.n, correct_count=spec.n,
                    rounds=1, span=None, max_decision_time=None,
                    total_messages=0, total_bits=0, amortized_bits=0.0,
                    max_node_bits=0, median_node_bits=0.0, load_imbalance=1.0,
                )

        try:
            yield ExperimentPlan(ns=(8,), protocols=("suicide_test",), seeds=(3, 4, 5, 6))
        finally:
            PROTOCOLS.unregister("suicide_test")

    def test_killed_worker_raises_instead_of_hanging(self, suicide_plan):
        from repro.experiments.sweep import WorkerCrashedError, WorkerPool

        with WorkerPool(processes=2) as pool:
            with pytest.raises(WorkerCrashedError) as excinfo:
                SweepRunner(suicide_plan, jobs=2).run(pool=pool)
            assert pool.size == 0  # the poisoned pool was terminated
        message = str(excinfo.value)
        assert "died with exit code" in message
        assert "suicide_test" in message  # names an unfinished spec key

    def test_killed_worker_of_a_private_pool_raises_too(self, suicide_plan):
        import multiprocessing

        from repro.experiments.sweep import WorkerCrashedError

        with pytest.raises(WorkerCrashedError, match="died with exit code -9"):
            SweepRunner(suicide_plan, jobs=2).run()
        assert multiprocessing.active_children() == []  # private pool reaped
