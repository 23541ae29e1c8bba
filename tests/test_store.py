"""Result-store subsystem: keying, persistence, sweep integration, CLI.

The store's contract, each half pinned here:

* **Content addressing** — equivalent spec spellings share one key; any
  field that changes what a run computes (backend, trace, params) changes
  the key; the code fingerprint partitions records between code versions.
* **Incremental sweeps** — a second identical sweep against a warm store
  executes **zero** protocol runs (asserted via the in-process run
  counter), returns byte-identical plan-ordered records, and a partial
  store serves exactly the delta.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.experiments.cli import main as cli_main
from repro.experiments.plan import ExperimentPlan, ExperimentSpec
from repro.experiments.sweep import (
    RUN_COUNTER,
    SweepResult,
    SweepRunner,
    execute_spec,
)
from repro.store import (
    SCHEMA_VERSION,
    ResultStore,
    StoreError,
    code_fingerprint,
    plan_key,
    resolve_store,
    spec_key,
)


@pytest.fixture(autouse=True)
def _pinned_fingerprint(monkeypatch):
    """Pin the code fingerprint so tests never depend on git state."""
    monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "test-fp")


@pytest.fixture()
def store(tmp_path):
    with ResultStore(str(tmp_path / "store.sqlite")) as s:
        yield s


# ----------------------------------------------------------------------
# keys
# ----------------------------------------------------------------------
class TestKeys:
    def test_equivalent_spellings_share_one_key(self):
        a = ExperimentSpec(n=64, params={"b": 1, "a": 2})
        b = ExperimentSpec(n=64, params='{"a":2,"b":1}')
        assert spec_key(a) == spec_key(b)

    def test_every_run_changing_field_changes_the_key(self):
        base = ExperimentSpec(n=64, seed=1)
        for changed in (
            base.with_(n=65),
            base.with_(seed=2),
            base.with_(adversary="silent"),
            base.with_(mode="async"),
            base.with_(backend="vectorized"),
            base.with_(trace="summary"),
            base.with_(quorum_multiplier=3.0),
            base.with_(params={"x": 1}),
        ):
            assert spec_key(changed) != spec_key(base)

    def test_plan_key_is_stable_and_order_sensitive(self):
        plan = ExperimentPlan(ns=(24, 32), seeds=(0, 1))
        assert plan_key(plan) == plan_key(ExperimentPlan(ns=[24, 32], seeds=[0, 1]))
        assert plan_key(plan) != plan_key(ExperimentPlan(ns=(32, 24), seeds=(0, 1)))

    def test_fingerprint_env_override_wins(self, monkeypatch):
        assert code_fingerprint() == "test-fp"
        monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "other")
        assert code_fingerprint() == "other"


class TestContentFingerprint:
    """Without the override, the fingerprint is the package's source content.

    Each case edits a temporary copy of the package and asks a fresh
    interpreter (the fingerprint is cached per process).
    """

    SWEEP = "sweep --ns 16 --adversaries none --modes sync --seeds 0 --jobs 1 --store {}"

    @pytest.fixture()
    def tree(self, tmp_path):
        src = tmp_path / "src"
        shutil.copytree(
            Path(repro.__file__).parent, src / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        (src / "notes.py").write_text("# outside the package\n")
        return src

    def _python(self, src, *args):
        env = {k: v for k, v in os.environ.items() if k != "REPRO_CODE_FINGERPRINT"}
        env.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        out = subprocess.run(
            [sys.executable, *args], env=env, cwd=str(src.parent),
            capture_output=True, text=True, timeout=120, check=True,
        )
        return out.stdout

    def _fingerprint(self, src):
        code = "from repro.store.keys import code_fingerprint; print(code_fingerprint())"
        return self._python(src, "-c", code).strip()

    @staticmethod
    def _edit(path, old, new):
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))

    def test_an_engine_edit_changes_it_and_an_outside_edit_does_not(self, tree):
        before = self._fingerprint(tree)
        assert len(before) == 16
        (tree / "notes.py").write_text("# edited, still outside the package\n")
        assert self._fingerprint(tree) == before
        self._edit(tree / "repro" / "vec" / "engine.py", '"""', '"""Edited. ')
        assert self._fingerprint(tree) != before

    def test_a_store_filled_before_an_id_bits_edit_serves_nothing_after_it(self, tree):
        sweep = ["-m", "repro", *self.SWEEP.format(tree.parent / "s.sqlite").split()]
        assert "0/1 served from store" in self._python(tree, *sweep)
        assert "1/1 served from store" in self._python(tree, *sweep)
        self._edit(
            tree / "repro" / "net" / "messages.py",
            "return max(1, math.ceil(math.log2(max(2, self.n))))",
            "return 1000 + max(1, math.ceil(math.log2(max(2, self.n))))",
        )
        assert "0/1 served from store" in self._python(tree, *sweep)


class TestNothingCanonicalCarriesTheFingerprint:
    """The fingerprint keys the store and is stamped nowhere else.

    Keys, records, canonical sweep JSON and a store-served report computed
    under two different code identities are identical (and name neither),
    which is why EXPERIMENTS.md and committed sweeps stay byte-identical
    when the code changes.
    """

    PLAN = ExperimentPlan(ns=(16,), seeds=(0, 1))

    def _artefacts(self, monkeypatch, tmp_path, fingerprint):
        from repro.experiments.sweep import SweepRunner
        from repro.report.build import ReportBuilder

        monkeypatch.setenv("REPRO_CODE_FINGERPRINT", fingerprint)
        assert code_fingerprint() == fingerprint
        spec = ExperimentSpec(n=16, seed=0)
        record = execute_spec(spec).to_dict()
        del record["seconds"]
        store_path = str(tmp_path / f"{fingerprint}.sqlite")
        ReportBuilder(("lemma3",), quick=True, jobs=1, store_path=store_path).build()
        served = ReportBuilder(("lemma3",), quick=True, jobs=1, store_path=store_path)
        assert all(built.from_cache for built in served.build_sections())
        return {
            "spec_key": spec_key(spec),
            "plan_key": plan_key(self.PLAN),
            "record": record,
            "sweep": SweepRunner(self.PLAN, jobs=1).run().canonical_dict(),
            "report": served.build(),
        }

    def test_two_code_identities_give_identical_artefacts(self, monkeypatch, tmp_path):
        first = self._artefacts(monkeypatch, tmp_path, "fingerprint-one")
        second = self._artefacts(monkeypatch, tmp_path, "fingerprint-two")
        assert first == second
        text = json.dumps(first, sort_keys=True)
        assert "fingerprint-one" not in text and "fingerprint-two" not in text


# ----------------------------------------------------------------------
# round-trip across every registered protocol
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_round_trip_across_all_registered_protocols(self, store):
        from repro.protocols import get_protocol, list_protocols

        specs = []
        for name in list_protocols():
            spec = get_protocol(name).relax_spec(
                ExperimentSpec(n=24, protocol=name, seed=3)
            )
            specs.append(spec)
        records = [execute_spec(spec) for spec in specs]
        assert store.put_many(records) == len(records)
        loaded = store.get_many(specs)
        assert loaded == records  # full dataclass equality, extras included
        assert set(store.stats()["by_protocol"]) == set(list_protocols())

    def test_hit_miss_and_fingerprint_invalidation(self, store, tmp_path):
        spec = ExperimentSpec(n=24, seed=3)
        assert store.get(spec) is None  # miss before put
        record = execute_spec(spec)
        store.put(record)
        assert store.get(spec) == record  # hit
        assert store.get(spec.with_(seed=4)) is None  # different spec: miss
        other = ResultStore(str(tmp_path / "store.sqlite"), fingerprint="other-fp")
        assert other.get(spec) is None  # same spec, other code: miss
        other.close()

    def test_prune_by_fingerprint_and_keep_current(self, store, tmp_path):
        record = execute_spec(ExperimentSpec(n=24, seed=3))
        store.put(record)
        other = ResultStore(str(tmp_path / "store.sqlite"), fingerprint="stale-fp")
        other.put(execute_spec(ExperimentSpec(n=24, seed=4)))
        assert store.stats()["records"] == 2
        assert store.prune(fingerprint="stale-fp") == 1
        other.put(execute_spec(ExperimentSpec(n=24, seed=5)))
        assert store.prune(keep_current=True) == 1
        stats = store.stats()
        assert stats["records"] == 1 and stats["by_fingerprint"] == {"test-fp": 1}
        with pytest.raises(ValueError, match="exactly one"):
            store.prune()
        with pytest.raises(ValueError, match="exactly one"):
            store.prune(fingerprint="x", keep_current=True)
        other.close()

    def test_query_filters_by_protocol_and_fingerprint(self, store):
        store.put(execute_spec(ExperimentSpec(n=24, seed=3)))
        rows = store.query(protocol="aer")
        assert len(rows) == 1 and rows[0]["spec"]["n"] == 24
        assert store.query(protocol="nope") == []
        assert store.query(fingerprint="other") == []


# ----------------------------------------------------------------------
# robustness: schema versions, corruption, concurrent writers
# ----------------------------------------------------------------------
class TestRobustness:
    def test_newer_schema_version_is_refused(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        with ResultStore(path) as s:
            s._conn.execute(
                "UPDATE store_meta SET value = ? WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION + 7),),
            )
            s._conn.commit()
        with pytest.raises(StoreError, match="newer than this code's version"):
            ResultStore(path)

    def test_corrupted_db_names_the_path_and_recovery(self, tmp_path):
        path = tmp_path / "store.sqlite"
        path.write_bytes(b"this is not a sqlite database, not even close\x00\x01")
        with pytest.raises(StoreError, match="delete the file"):
            ResultStore(str(path))
        with pytest.raises(StoreError, match="store.sqlite"):
            ResultStore(str(path))

    def test_two_process_concurrent_writers(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        ResultStore(path).close()  # create the schema up front
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        procs = [
            ctx.Process(target=_writer_proc, args=(path, base_seed))
            for base_seed in (100, 200)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        with ResultStore(path) as store:
            assert store.stats()["records"] == 8  # 2 writers x 4 distinct specs


def _writer_proc(path: str, base_seed: int) -> None:
    os.environ["REPRO_CODE_FINGERPRINT"] = "test-fp"
    store = ResultStore(path)
    for seed in range(base_seed, base_seed + 4):
        store.put(execute_spec(ExperimentSpec(n=16, seed=seed)))
    store.close()


# ----------------------------------------------------------------------
# sweep integration: the zero-re-run contract
# ----------------------------------------------------------------------
PLAN = ExperimentPlan(ns=(24,), adversaries=("none", "silent"), seeds=(3,))


class TestSweepIntegration:
    def test_second_identical_sweep_executes_zero_protocol_runs(self, store):
        first = SweepRunner(PLAN, jobs=1).run(store=store)
        assert first.served_from_store == 0
        executed_before = RUN_COUNTER["executed"]
        second = SweepRunner(PLAN, jobs=1).run(store=store)
        assert RUN_COUNTER["executed"] == executed_before  # zero protocol runs
        assert second.served_from_store == len(second.records) == 2
        # plan-order output is byte-identical, original measurements included
        assert json.dumps([r.to_dict() for r in first.records]) == json.dumps(
            [r.to_dict() for r in second.records]
        )

    def test_partial_store_runs_only_the_delta(self, store):
        SweepRunner(ExperimentPlan(ns=(24,), seeds=(3,)), jobs=1).run(store=store)
        grown = ExperimentPlan(ns=(24,), seeds=(3, 4))
        executed_before = RUN_COUNTER["executed"]
        result = SweepRunner(grown, jobs=1).run(store=store)
        assert RUN_COUNTER["executed"] == executed_before + 1  # only seed 4
        assert result.served_from_store == 1
        assert [r.spec.seed for r in result.records] == [3, 4]  # plan order kept

    def test_store_with_worker_pool_serves_and_flushes(self, store):
        first = SweepRunner(PLAN, jobs=2).run(store=store)
        assert first.served_from_store == 0
        assert store.stats()["records"] == 2  # pooled records flushed too
        second = SweepRunner(PLAN, jobs=2).run(store=store)
        assert second.served_from_store == 2
        for a, b in zip(first.records, second.records):
            assert a.spec == b.spec and a.total_bits == b.total_bits

    def test_on_record_fires_for_hits_and_fresh_runs(self, store):
        events = []
        SweepRunner(PLAN, jobs=1).run(
            store=store, on_record=lambda i, r, served: events.append((i, served))
        )
        assert events == [(0, False), (1, False)]
        events.clear()
        SweepRunner(PLAN, jobs=1).run(
            store=store, on_record=lambda i, r, served: events.append((i, served))
        )
        assert events == [(0, True), (1, True)]

    def test_seed_records_resume_without_a_store(self):
        complete = SweepRunner(PLAN, jobs=1).run()
        seeds = {spec_key(r.spec): r for r in complete.records[:1]}
        executed_before = RUN_COUNTER["executed"]
        resumed = SweepRunner(PLAN, jobs=1).run(seed_records=seeds)
        assert RUN_COUNTER["executed"] == executed_before + 1  # only the miss
        assert resumed.served_from_store == 1
        assert resumed.records[0] == complete.records[0]


# ----------------------------------------------------------------------
# CLI: sweep --store/--no-store/--resume, store stats/prune
# ----------------------------------------------------------------------
class TestCLI:
    SWEEP_ARGS = [
        "sweep", "--ns", "24", "--adversaries", "none", "--seeds", "3", "--jobs", "1",
    ]

    def test_sweep_store_flag_then_full_hit(self, tmp_path, capsys):
        store_path = str(tmp_path / "s.sqlite")
        assert cli_main([*self.SWEEP_ARGS, "--store", store_path]) == 0
        assert "0/1 served from store" in capsys.readouterr().out
        executed_before = RUN_COUNTER["executed"]
        assert cli_main([*self.SWEEP_ARGS, "--store", store_path]) == 0
        assert "1/1 served from store" in capsys.readouterr().out
        assert RUN_COUNTER["executed"] == executed_before

    def test_no_store_overrides_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env.sqlite"))
        assert cli_main([*self.SWEEP_ARGS, "--no-store"]) == 0
        assert "served from store" not in capsys.readouterr().out
        assert not (tmp_path / "env.sqlite").exists()

    def test_env_store_is_used_without_flags(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env.sqlite"))
        assert cli_main(self.SWEEP_ARGS) == 0
        assert (tmp_path / "env.sqlite").exists()
        assert "0/1 served from store" in capsys.readouterr().out

    def test_resume_runs_only_missing_spec_keys(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert cli_main([*self.SWEEP_ARGS, "--out", str(out)]) == 0
        capsys.readouterr()
        # grow the grid; resume re-seeds the finished spec from the file
        executed_before = RUN_COUNTER["executed"]
        assert (
            cli_main(
                [
                    "sweep", "--ns", "24", "--adversaries", "none,silent",
                    "--seeds", "3", "--jobs", "1", "--resume", str(out),
                ]
            )
            == 0
        )
        assert RUN_COUNTER["executed"] == executed_before + 1
        assert "1/2 served from store" in capsys.readouterr().out
        data = json.loads(out.read_text(encoding="utf-8"))
        assert len(data["records"]) == 2  # --resume doubled as --out
        assert data["served_from_store"] == 1

    def test_store_stats_and_prune_commands(self, tmp_path, capsys):
        store_path = str(tmp_path / "s.sqlite")
        assert cli_main([*self.SWEEP_ARGS, "--store", store_path]) == 0
        capsys.readouterr()
        assert cli_main(["store", "stats", "--store", store_path]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["records"] == 1 and stats["by_fingerprint"] == {"test-fp": 1}
        assert cli_main(
            ["store", "prune", "--store", store_path, "--fingerprint", "test-fp"]
        ) == 0
        assert "pruned 1 record(s)" in capsys.readouterr().out
        assert cli_main(["store", "stats", "--store", store_path]) == 0
        assert json.loads(capsys.readouterr().out)["records"] == 0

    def test_store_command_surfaces_corruption_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.sqlite"
        bad.write_bytes(b"garbage")
        assert cli_main(["store", "stats", "--store", str(bad)]) == 2
        assert "delete the file" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["", '[{"records": [{"trunc'])
    def test_resume_tolerates_empty_and_truncated_files(
        self, tmp_path, capsys, content
    ):
        """An interrupted sweep's partial file seeds 0 records, not an abort."""
        partial = tmp_path / "partial.json"
        partial.write_text(content, encoding="utf-8")
        assert cli_main(
            [*self.SWEEP_ARGS, "--no-store", "--resume", str(partial)]
        ) == 0
        captured = capsys.readouterr()
        assert "seeding 0/1 records" in captured.err
        assert "resume: seeding 0/1 records" in captured.out
        # the finished sweep replaces the corrupt file (resume doubles as out)
        data = json.loads(partial.read_text(encoding="utf-8"))
        assert len(data["records"]) == 1
        # and resuming from the repaired file now seeds normally
        capsys.readouterr()
        executed_before = RUN_COUNTER["executed"]
        assert cli_main(
            [*self.SWEEP_ARGS, "--no-store", "--resume", str(partial)]
        ) == 0
        assert RUN_COUNTER["executed"] == executed_before
        assert "resume: seeding 1/1 records" in capsys.readouterr().out


# ----------------------------------------------------------------------
# faulted specs: keying, store round-trip, resume with fault metadata
# ----------------------------------------------------------------------
class TestFaultedSpecs:
    FAULTS = {"loss_rate": 0.1, "churn_rate": 0.05}

    def test_fault_schedule_participates_in_the_key(self):
        base = ExperimentSpec(n=24, seed=3)
        faulted = base.with_(faults=self.FAULTS)
        assert spec_key(faulted) != spec_key(base)
        assert spec_key(faulted) != spec_key(
            base.with_(faults={"loss_rate": 0.2, "churn_rate": 0.05})
        )
        # equivalent spellings of one schedule are one key (a store hit)
        assert spec_key(faulted) == spec_key(
            base.with_(faults='{"churn_rate":0.05,"loss_rate":0.1}')
        )

    def test_store_hit_miss_across_schedule_change(self, store):
        spec = ExperimentSpec(n=24, seed=3, faults=self.FAULTS)
        record = execute_spec(spec)
        store.put(record)
        assert store.get(spec) == record
        assert store.get(spec.with_(faults={"loss_rate": 0.2})) is None
        assert store.get(spec.with_(faults={})) is None

    def test_resume_roundtrips_fault_metadata(self, tmp_path):
        plan = ExperimentPlan(ns=(24,), seeds=(3,), faults=self.FAULTS)
        out = tmp_path / "faulted.json"
        complete = SweepRunner(plan, jobs=1).run()
        complete.save(str(out))
        loaded = SweepResult.load_records(str(out))
        assert [r.spec for r in loaded] == [r.spec for r in complete.records]
        assert loaded[0].spec.faults_dict() == self.FAULTS
        assert loaded[0].extras["fault_dropped_loss"] > 0
        # the loaded records seed a resume: zero fresh executions
        executed_before = RUN_COUNTER["executed"]
        resumed = SweepRunner(plan, jobs=1).run(
            seed_records={spec_key(r.spec): r for r in loaded}
        )
        assert RUN_COUNTER["executed"] == executed_before
        assert resumed.records == complete.records


# ----------------------------------------------------------------------
# result-file compatibility
# ----------------------------------------------------------------------
def test_sweep_result_json_roundtrips_served_count(tmp_path):
    result = SweepRunner(ExperimentPlan(ns=(24,), seeds=(3,)), jobs=1).run()
    path = tmp_path / "sweep.json"
    result.save(str(path))
    loaded = SweepResult.load(str(path))
    assert loaded.served_from_store == 0
    # pre-store files (no served_from_store key) still load
    data = json.loads(path.read_text(encoding="utf-8"))
    del data["served_from_store"]
    path.write_text(json.dumps(data), encoding="utf-8")
    assert SweepResult.load(str(path)).served_from_store == 0


def test_resolve_store_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    assert resolve_store(None) is None  # nothing set: no store
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env.sqlite"))
    via_env = resolve_store(None)
    assert via_env is not None and via_env.path.endswith("env.sqlite")
    via_env.close()
    assert resolve_store(None, no_store=True) is None
    explicit = resolve_store(str(tmp_path / "flag.sqlite"))
    assert explicit.path.endswith("flag.sqlite")
    explicit.close()
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REPRO_STORE")
    default = resolve_store("")  # bare --store: the default path
    assert default.path == ".repro-store.sqlite"
    default.close()


def test_store_plus_resume_prints_one_consolidated_served_line(tmp_path, capsys):
    """Both sources live: one "served K/N (store J, resume I)" line, no
    double counting when they supply the same spec key."""
    store_path = str(tmp_path / "s.sqlite")
    resume_path = tmp_path / "resume.json"
    # the store holds spec A; the resume file holds A *and* B
    complete = SweepRunner(PLAN, jobs=1).run()
    with ResultStore(store_path) as store:
        store.put(complete.records[0])
    complete.save(str(resume_path))
    executed_before = RUN_COUNTER["executed"]
    assert (
        cli_main(
            [
                "sweep", "--ns", "24", "--adversaries", "none,silent",
                "--seeds", "3", "--jobs", "1",
                "--store", store_path, "--resume", str(resume_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    # store precedence for the shared key A; B comes from the resume file
    assert "served 2/2 (store 1, resume 1)" in out
    assert "served from store" not in out  # the old line is replaced
    assert RUN_COUNTER["executed"] == executed_before  # fully served
