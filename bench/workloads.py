"""The four workloads: what runs, with which inputs, and how it is checked.

Every workload is a fixed *cycle* of ops that the runner repeats in a closed
loop (the next op starts when the previous one has returned) until the time
budget is spent.  Inputs are generated from ``--seed S`` only: op ``i`` of a
run uses simulation seed ``1000*S + i``.  Seeds are distinct per op on
purpose — ``sampler_seed = seed`` makes every ``(n, seed)`` pay its own
sampler-table builds, exactly as a user's sweep does.

Why these four (see README.md for the long form):

``msg_sync``     the message kernel's batched round loop at n=128 under five
                 adversaries — ``core`` handlers and ``net.deliver_batch``
                 dominate; ``vec``, ``store`` and ``dist`` do nothing.
``msg_async``    the same layers used differently: calendar queue, per-message
                 delay draws, inlined delivery; fast path, observed path and
                 Lemma 6's cornering attack in a 2:2:1 mix.
``vec_scale``    the vectorized backend at n=20 000: cold tables (hashing and
                 table build), warm tables (round loop, bit packing) and warm
                 tables under a binding memory budget (streaming path).
``plan_report``  the product surface: ``plan -> EXPERIMENTS.md`` cold and
                 store-served through the CLI, and one cheap 244-spec plan
                 through serial+store, store-served, pooled and distributed
                 dispatch, where the engines do little and ``store``,
                 ``experiments.sweep``, ``dist`` and ``report`` dominate.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from harness import (
    Inspection,
    Run,
    median,
    record_stats,
    run_python,
    safety_failures,
)

from repro import dist
from repro.core.config import AERConfig
from repro.experiments import sweep
from repro.experiments.plan import ExperimentPlan, ExperimentSpec
from repro.experiments.sweep import SweepResult, SweepRunner, WorkerPool
from repro.report import ReportBuilder
from repro.store import ResultStore
from repro.vec.tables import tables_for


# ----------------------------------------------------------------------
# engine workloads: a cycle is a list of (class, spec)
# ----------------------------------------------------------------------
def _config(spec: ExperimentSpec) -> AERConfig:
    """The config the AER adapter derives from ``spec`` (the caches' key)."""
    return AERConfig.for_system(
        spec.n, sampler_seed=spec.seed, quorum_multiplier=spec.quorum_multiplier
    )


def _sampler_cache(spec: ExperimentSpec) -> Dict[str, int]:
    """Hits/misses/rows of the op's (still cached) sampler suite."""
    suite = _config(spec).shared_samplers()
    caches = [suite.push.cache_info, suite.pull.cache_info, suite.poll.cache_info]
    return {
        "sampler_hits": sum(c.hits for c in caches),
        "sampler_misses": sum(c.misses for c in caches),
        "poll_entries_built": suite.poll.cache_info.misses,
    }


def _vec_tables(spec: ExperimentSpec) -> Dict[str, float]:
    return {"packed_mb": tables_for(_config(spec)).packed_nbytes() / (1 << 20)}


def _inspect_record(record) -> Inspection:
    spec = record.spec
    extra = _vec_tables(spec) if spec.backend == "vectorized" else _sampler_cache(spec)
    return record_stats(record), extra, safety_failures(record)


class EngineWorkload:
    """``spec -> record`` through ``execute_spec``, one op per spec."""

    name = ""
    #: classes whose ops feed run_s_p50 (None: every op)
    latency_classes: Optional[Tuple[str, ...]] = None
    #: classes whose ops feed sim_msgs_per_s and the simulated-statistics counts
    engine_classes: Optional[Tuple[str, ...]] = None

    def __init__(self, run: Run) -> None:
        self.run = run

    def cycle_specs(self, k: int) -> List[Tuple[str, ExperimentSpec]]:
        raise NotImplementedError

    def warmup_specs(self) -> List[ExperimentSpec]:
        """Small ops of the same kinds, run in set-up so lazy imports and
        first-call caches are paid before timing starts."""
        # a fixed seed: set-up does the same work whatever --seed is
        return list(dict.fromkeys(spec.with_(n=32, seed=0) for _, spec in self.cycle_specs(0)))

    def setup(self) -> None:
        for _, spec in self.cycle_specs(0):
            spec.validate()
        for spec in self.warmup_specs():
            sweep.execute_spec(spec)

    def teardown(self) -> None:
        pass

    def run_cycle(self, k: int) -> None:
        for cls, spec in self.cycle_specs(k):
            self.run.op(f"{cls}/{spec.key}", cls, lambda spec=spec: sweep.execute_spec(spec), _inspect_record)

    def trace_extras(self) -> Dict[str, float]:
        """Untraced probes that only the traced run pays for."""
        return {}

    def op_seed(self, k: int, i: int, per_cycle: int) -> int:
        return 1000 * self.run.seed + per_cycle * k + i


class MsgSync(EngineWorkload):
    name = "msg_sync"
    ADVERSARIES = ("none", "silent", "wrong_answer", "push_flood", "quorum_flood")

    def cycle_specs(self, k):
        n = 32 if self.run.smoke else 128
        return [
            (adversary, ExperimentSpec(
                n=n, adversary=adversary, mode="sync",
                seed=self.op_seed(k, i, len(self.ADVERSARIES)),
            ))
            for i, adversary in enumerate(self.ADVERSARIES)
        ]


class MsgAsync(EngineWorkload):
    name = "msg_async"
    #: (class, adversary, n, smoke n): fast path, observed path, cornering, 2:2:1
    MIX = (
        ("fastpath", "none", 64, 24),
        ("observed", "silent", 64, 24),
        ("fastpath", "none", 64, 24),
        ("observed", "silent", 64, 24),
        ("cornering", "cornering", 48, 16),
    )

    def cycle_specs(self, k):
        return [
            (cls, ExperimentSpec(
                n=small if self.run.smoke else n, adversary=adversary, mode="async",
                seed=self.op_seed(k, i, len(self.MIX)),
            ))
            for i, (cls, adversary, n, small) in enumerate(self.MIX)
        ]


class VecScale(EngineWorkload):
    name = "vec_scale"
    latency_classes = ("warm", "tight")
    #: MB; a quarter of it backs the unpacked-table LRU, which at n=20 000
    #: (2.3 MB per table) it must be too small to hold
    TIGHT_MB = 4

    def _spec(self, k: int, adversary: str, tight: bool = False) -> ExperimentSpec:
        return ExperimentSpec(
            n=1536 if self.run.smoke else 20_000,
            backend="vectorized", wrong_candidate_mode="common_wrong",
            adversary=adversary, seed=self.op_seed(k, 0, 1),
            params={"vec_memory_mb": 0.25 if self.run.smoke else self.TIGHT_MB} if tight else {},
        )

    def cycle_specs(self, k):
        # A: cold tables; B: same seed, warm tables; C: warm, budget-bound
        return [
            ("cold", self._spec(k, "none")),
            ("warm", self._spec(k, "quorum_flood")),
            ("tight", self._spec(k, "none", tight=True)),
        ]

    def warmup_specs(self):
        return []  # the n=96 cross-check below warms both engines

    def setup(self) -> None:
        super().setup()
        self.cross_check()

    def cross_check(self) -> None:
        """Message kernel vs vectorized engine, field for field, at n=96."""
        for adversary in ("none", "quorum_flood"):
            base = ExperimentSpec(
                n=96, wrong_candidate_mode="common_wrong", adversary=adversary,
                seed=1000 * self.run.seed,
            )
            oracle = sweep.execute_spec(base).to_dict()
            vec = sweep.execute_spec(base.with_(backend="vectorized")).to_dict()
            for data in (oracle, vec):
                data.pop("seconds")
                data["spec"].pop("backend")
            if oracle != vec:
                diff = {k: (oracle[k], vec[k]) for k in oracle if oracle[k] != vec[k]}
                raise AssertionError(f"vec != message at n=96 ({adversary}): {diff}")

    def trace_extras(self) -> Dict[str, float]:
        """Peak RSS of one budget-bound op in a fresh child process."""
        spec = self._spec(0, "none", tight=True)
        code = (
            "import json, resource, sys\n"
            "from repro.experiments.plan import ExperimentSpec\n"
            "from repro.experiments.sweep import execute_spec\n"
            "execute_spec(ExperimentSpec.from_dict(json.loads(sys.argv[1])))\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)\n"
        )
        done = run_python(["-c", code, json.dumps(spec.to_dict())])
        if done.returncode != 0:
            raise RuntimeError(f"rss probe failed: {done.stderr.strip()}")
        return {"tight_peak_rss_mb": float(done.stdout.strip())}


# ----------------------------------------------------------------------
# plan_report: the product surface
# ----------------------------------------------------------------------
@contextmanager
def _coordinator_status(sink: Dict[str, object]) -> Iterator[None]:
    """Snapshot the coordinator's ``status()`` when the sweep closes it.

    ``run_distributed_sweep`` builds and closes its coordinator internally;
    its lease counters are only reachable at that moment.  One call per
    sweep, so it stays on in the untraced run.
    """
    original = dist.DistCoordinator.close

    def close(self) -> None:
        if "status" not in sink:
            sink["status"] = self.status()
            sink["shards_issued"] = sum(shard.attempts for shard in self.board.shards)
        original(self)

    dist.DistCoordinator.close = close
    try:
        yield
    finally:
        dist.DistCoordinator.close = original


def _sweep_stats(result: SweepResult) -> Dict[str, object]:
    records = result.records
    return {
        "specs": len(records),
        "total_messages": sum(r.total_messages for r in records),
        "total_bits": sum(r.total_bits for r in records),
        "rounds": sum(r.rounds or 0 for r in records),
        "decided_count": sum(r.decided_count for r in records),
        "correct_count": sum(r.correct_count for r in records),
        "agreement": sum(1 for r in records if r.agreement),
    }


def _db_bytes(path: str) -> int:
    """Store file plus its write-ahead log (WAL mode keeps fresh rows there)."""
    return sum(os.path.getsize(p) for p in (path, path + "-wal") if os.path.exists(p))


def _sweep_extra(result: SweepResult) -> Dict[str, object]:
    return {
        "specs": len(result.records),
        "served": result.served_from_store,
        "record_seconds": sum(r.seconds for r in result.records),
    }


class PlanReport:
    name = "plan_report"
    latency_classes = ("report_served",)
    engine_classes = ("sweep_serial",)
    SECTIONS = ("lemma3",)
    REPORT_SERVED = 3
    SWEEP_SERVED = 5
    WORKERS = 2

    def __init__(self, run: Run) -> None:
        self.run = run
        self.pool: Optional[WorkerPool] = None
        self.seeds_per_cycle = 4 if run.smoke else 30

    def plan(self, k: int) -> ExperimentPlan:
        first = 1000 * self.run.seed + self.seeds_per_cycle * k
        # four small lossy AER runs ride along so that the dispatch paths also
        # carry the fault injector (no other workload touches repro.faults)
        lossy = tuple(
            ExperimentSpec(n=16, mode=mode, seed=first + i, faults={"loss_rate": 0.1})
            for i, mode in enumerate(("sync", "async", "sync", "async"))
        )
        return ExperimentPlan(
            ns=(16, 24), protocols=("sample_majority", "naive_broadcast"),
            adversaries=("none", "silent"), modes=("sync",),
            seeds=tuple(range(first, first + self.seeds_per_cycle)),
            extra_specs=() if self.run.smoke else lossy,
        )

    def setup(self) -> None:
        self.teardown()
        self.plan(0).validate()
        # a warm pool: workers forked and primed before timing starts
        self.pool = WorkerPool(self.WORKERS)
        warm = ExperimentPlan(
            ns=(16,), protocols=("sample_majority", "naive_broadcast"),
            seeds=tuple(range(2 * self.WORKERS)),
        )
        SweepRunner(warm, jobs=self.WORKERS).run(pool=self.pool)

    def teardown(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    # -- report ----------------------------------------------------------
    def _report_cli(self, store: str, out: str) -> str:
        done = run_python([
            "-m", "repro", "report", "--quick", "--sections", ",".join(self.SECTIONS),
            "--jobs", "1", "--store", store, "-o", out,
        ])
        if done.returncode != 0:
            raise RuntimeError(f"report CLI exited {done.returncode}: {done.stderr.strip()}")
        with open(out, "rb") as fh:
            return fh.read().decode("utf-8")

    def _report_api(self, store: str) -> Tuple[str, int]:
        before = sweep.RUN_COUNTER["executed"]
        text = ReportBuilder(self.SECTIONS, quick=True, jobs=1, store_path=store).build()
        return text, sweep.RUN_COUNTER["executed"] - before

    def _report_ops(self, k: int) -> None:
        run = self.run
        work = run.fresh_dir("report")
        store = str(work / "store.sqlite")
        cold = run.op(
            f"report_cold/{k}", "report_cold",
            lambda: self._report_cli(store, str(work / "cold.md")),
            lambda text: ({}, {"bytes": len(text)}, []),
        )

        def same_as_cold(text: str) -> Inspection:
            return {}, {}, [] if text == cold else ["served report differs from the cold one"]

        for j in range(1 if run.smoke else self.REPORT_SERVED):
            run.op(
                f"report_served/{k}.{j}", "report_served",
                lambda j=j: self._report_cli(store, str(work / f"served{j}.md")),
                same_as_cold,
            )

        def inspect_api(payload) -> Inspection:
            text, executed = payload
            built = ReportBuilder(self.SECTIONS, quick=True, jobs=1, store_path=store).build_sections()
            failures = same_as_cold(text)[2]
            if executed or not all(b.from_cache for b in built):
                failures.append(f"served report build executed {executed} spec(s)")
            return {}, {"specs": sum(len(b.sweep.records) for b in built)}, failures

        run.op(f"report_api_served/{k}", "report_api_served", lambda: self._report_api(store), inspect_api)

    # -- sweep dispatch ----------------------------------------------------
    def _sweep_ops(self, k: int) -> None:
        run = self.run
        plan = self.plan(k)
        # op ids name the inputs (first seed + seed count), so pins never
        # apply to a plan of another size or seed
        k = f"s{plan.seeds[0]}+{len(plan.seeds)}"
        work = run.fresh_dir("sweep")
        store_path = str(work / "store.sqlite")
        store = ResultStore(store_path)
        try:
            serial = run.op(
                f"sweep_serial/{k}", "sweep_serial",
                lambda: SweepRunner(plan, jobs=1).run(store=store),
                lambda r: (
                    _sweep_stats(r),
                    dict(_sweep_extra(r), db_bytes=_db_bytes(store_path)),
                    [f for record in r.records for f in safety_failures(record)]
                    + ([] if r.served_from_store == 0 else ["cold sweep was served from the store"]),
                ),
            )
            if serial is None:
                return
            canonical = serial.canonical_dict()

            def same_as_serial(result: SweepResult, all_served: bool = False) -> Inspection:
                failures = []
                if result.canonical_dict() != canonical:
                    failures.append("canonical_dict() differs from the serial sweep")
                if all_served and result.served_from_store != len(result.records):
                    failures.append(
                        f"only {result.served_from_store}/{len(result.records)} served from the store"
                    )
                return {}, _sweep_extra(result), failures

            for j in range(1 if run.smoke else self.SWEEP_SERVED):
                run.op(
                    f"sweep_served/{k}.{j}", "sweep_served",
                    lambda: SweepRunner(plan, jobs=1).run(store=store),
                    lambda r: same_as_serial(r, all_served=True),
                )
        finally:
            store.close()

        run.op(
            f"sweep_pool/{k}", "sweep_pool",
            lambda: SweepRunner(plan, jobs=self.WORKERS).run(pool=self.pool),
            same_as_serial,
        )

        captured: Dict[str, object] = {}

        def distributed() -> SweepResult:
            with _coordinator_status(captured):
                return dist.run_distributed_sweep(plan, workers=self.WORKERS)

        def inspect_dist(result: SweepResult) -> Inspection:
            stats, extra, failures = same_as_serial(result)
            status = captured.get("status", {})
            extra.update(
                shards_issued=captured.get("shards_issued", 0),
                lease_expiries=status.get("expired_leases", 0),
                duplicate_completions=status.get("duplicate_completions", 0),
            )
            return stats, extra, failures

        run.op(f"sweep_dist/{k}", "sweep_dist", distributed, inspect_dist)

        # the store layer alone: one batched write and one whole-plan read
        batch_path = str(work / "batch.sqlite")

        def store_batch() -> List[object]:
            with ResultStore(batch_path) as batch:
                batch.put_many(serial.records)
                return batch.get_many(plan.specs())

        run.op(
            f"store_batch/{k}", "store_batch", store_batch,
            lambda hits: (
                {}, {"specs": len(hits)},
                [] if [h.to_dict() for h in hits] == [r.to_dict() for r in serial.records]
                else ["store round trip changed the records"],
            ),
        )

        saved = str(work / "sweep.json")

        def save_load() -> SweepResult:
            serial.save(saved)
            return SweepResult.load(saved)

        run.op(f"sweep_saveload/{k}", "sweep_saveload", save_load, same_as_serial)

    def run_cycle(self, k: int) -> None:
        self._report_ops(k)
        self._sweep_ops(k)

    # -- traced-run probes ---------------------------------------------------
    def trace_extras(self) -> Dict[str, float]:
        """What ``trace="summary"`` costs on top of ``trace="off"``, same spec."""
        ratios = []
        for i in range(1 if self.run.smoke else 2):
            spec = ExperimentSpec(
                n=32 if self.run.smoke else 128, mode="sync", seed=1000 * self.run.seed + i
            )
            off = sweep.execute_spec(spec).seconds
            summary = sweep.execute_spec(spec.with_(trace="summary")).seconds
            ratios.append(summary / off)
        return {"summary_ratio": median(ratios)}


WORKLOADS = {cls.name: cls for cls in (MsgSync, MsgAsync, VecScale, PlanReport)}
