"""Tests for the trace subsystem (repro.trace).

The load-bearing guarantees:

* **disabled tracing is free and invisible** — a spec with ``trace="off"``
  takes exactly the plain-runner code path (the golden engine tests pin the
  bytes; here we pin the equivalence explicitly), and *enabled* tracing
  never perturbs results either, because probes touch no RNG and no
  message flow;
* **summaries are data** — ``TraceSummary`` round-trips through the sweep
  subsystem's JSON persistence unchanged;
* **probes are typed** — unknown probe names and undeclared fields are
  rejected at the emission site;
* **full mode streams JSONL** — one parseable file per spec key under
  ``$REPRO_TRACE_DIR``.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.plan import ExperimentPlan, ExperimentSpec
from repro.experiments.sweep import SweepResult, SweepRunner
from repro.trace import ProbePoint, TraceCollector, TraceSummary, register_probe
from repro.trace.collector import collector_for_spec


class TestDisabledPathEquivalence:
    """trace='off' is byte-identical to the plain runner; tracing never perturbs."""

    CASES = [
        dict(n=32, adversary="none", mode="sync", seed=0),
        dict(n=32, adversary="quorum_flood", mode="sync", seed=2),
        dict(n=24, adversary="cornering", mode="async", seed=1),
    ]

    METRIC_FIELDS = (
        "agreement", "decided_count", "correct_count", "rounds", "span",
        "max_decision_time", "total_messages", "total_bits", "amortized_bits",
        "max_node_bits", "median_node_bits", "load_imbalance",
    )

    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c['mode']}:{c['adversary']}")
    def test_trace_off_matches_plain_runner(self, case, direct_aer_run):
        plain = direct_aer_run(**case)
        spec_result = ExperimentSpec(
            n=case["n"], adversary=case["adversary"], mode=case["mode"],
            seed=case["seed"], trace="off",
        ).run()
        assert spec_result.trace is None
        assert spec_result.rounds == plain.rounds
        assert spec_result.span == plain.span
        assert spec_result.total_messages == plain.metrics_all.total_messages
        assert spec_result.total_bits == plain.metrics_all.total_bits
        assert spec_result.max_node_bits == plain.metrics.max_node_bits
        assert spec_result.agreement == plain.agreement_reached
        assert spec_result.decided_count == len(plain.decisions)

    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c['mode']}:{c['adversary']}")
    def test_enabling_tracing_does_not_perturb_results(self, case):
        off = ExperimentSpec(trace="off", **case).run()
        on = ExperimentSpec(trace="summary", **case).run()
        for field in self.METRIC_FIELDS:
            assert getattr(off, field) == getattr(on, field), field
        assert on.trace is not None
        assert on.trace["mode"] == "summary"

    def test_trace_totals_match_metrics(self):
        result = ExperimentSpec(n=32, adversary="silent", seed=1, trace="summary").run()
        kinds = result.trace["message_kinds"]
        byz = result.trace["byzantine_message_kinds"]
        traced_messages = sum(v["messages"] for v in kinds.values()) + sum(
            v["messages"] for v in byz.values()
        )
        traced_bits = sum(v["bits"] for v in kinds.values()) + sum(
            v["bits"] for v in byz.values()
        )
        assert traced_messages == result.total_messages
        assert traced_bits == result.total_bits


class TestSweepRoundTrip:
    """TraceSummary blocks survive SweepRunner persistence byte-for-byte."""

    def test_summary_round_trips_through_sweep_json(self, tmp_path):
        plan = ExperimentPlan(
            ns=(24,), adversaries=("none", "wrong_answer"), seeds=(0,), trace="summary"
        )
        sweep = SweepRunner(plan, jobs=1).run()
        assert all(record.trace is not None for record in sweep.records)

        path = tmp_path / "sweep.json"
        sweep.save(str(path))
        loaded = SweepResult.load(str(path))
        for original, reloaded in zip(sweep.records, loaded.records):
            assert reloaded.spec.trace == "summary"
            assert reloaded.trace == original.trace

    def test_untraced_records_have_no_trace_block(self, tmp_path):
        plan = ExperimentPlan(ns=(24,), seeds=(0,))
        sweep = SweepRunner(plan, jobs=1).run()
        path = tmp_path / "sweep.json"
        sweep.save(str(path))
        loaded = SweepResult.load(str(path))
        assert all(record.trace is None for record in loaded.records)

    def test_old_sweep_json_without_trace_key_loads(self, tmp_path):
        plan = ExperimentPlan(ns=(24,), seeds=(0,))
        sweep = SweepRunner(plan, jobs=1).run()
        data = sweep.to_dict()
        for record in data["records"]:
            record.pop("trace")          # a pre-trace-subsystem sweep file
            record["spec"].pop("trace")
        path = tmp_path / "old.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        loaded = SweepResult.load(str(path))
        assert loaded.records[0].trace is None
        assert loaded.records[0].spec.trace == "off"

    def test_summary_dataclass_round_trip(self):
        result = ExperimentSpec(n=24, seed=3, trace="summary").run()
        summary = TraceSummary.from_dict(result.trace)
        assert summary.to_dict() == result.trace


class TestProbeValidation:
    """The probe registry rejects typos loudly."""

    def test_unknown_probe_name_rejected(self):
        collector = TraceCollector(mode="summary")
        with pytest.raises(ValueError, match="unknown probe point 'bogus_probe'"):
            collector.emit("bogus_probe", node=1)

    def test_undeclared_field_rejected(self):
        collector = TraceCollector(mode="summary")
        with pytest.raises(ValueError, match="does not declare field"):
            collector.emit("push_ignored", node=1, giraffe=2)

    def test_registered_extension_probe_accepted(self):
        register_probe(ProbePoint("test_only_probe", "test", ("node",)), replace=True)
        collector = TraceCollector(mode="summary")
        collector.emit("test_only_probe", node=7)
        assert collector.summary().events["test_only_probe"] == 1

    def test_emit_of_builtin_probe_feeds_specialized_accounting(self):
        # emit() and the dedicated methods are two spellings of one probe:
        # the summary blocks derived from per-node state must agree.
        collector = TraceCollector(mode="summary")
        collector.bind_population([1, 5], [])
        collector.emit("budget_exhausted", node=5)
        collector.emit("message_dispatched", sender=1, kind="push", count=2, bits=10)
        collector.emit("node_decided", node=5, time=3.0)
        summary = collector.summary()
        assert summary.polls["budget_exhausted_nodes"] == 1
        assert summary.message_kinds["push"] == {"messages": 2, "bits": 20}
        assert summary.polls["decided"] == 1

    def test_emit_of_builtin_probe_requires_declared_fields(self):
        collector = TraceCollector(mode="summary")
        with pytest.raises(ValueError, match="requires all of its declared"):
            collector.emit("budget_exhausted")

    def test_duplicate_probe_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_probe(ProbePoint("push_ignored", "dup", ()))

    def test_unknown_trace_mode_rejected_by_collector(self):
        with pytest.raises(ValueError, match="unknown trace mode"):
            TraceCollector(mode="everything")

    def test_unknown_trace_mode_rejected_by_spec(self):
        with pytest.raises(ValueError, match="unknown trace mode"):
            ExperimentSpec(n=24, trace="everything").validate()

    def test_unsupported_protocol_rejects_tracing(self):
        spec = ExperimentSpec(n=24, protocol="sampler_border", trace="summary")
        with pytest.raises(ValueError, match="does not support tracing"):
            spec.validate()


class TestFullMode:
    """trace='full' streams per-event JSONL for offline analysis."""

    def test_jsonl_smoke(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        spec = ExperimentSpec(n=24, adversary="silent", seed=0, trace="full")
        result = spec.run()
        assert result.trace["mode"] == "full"
        assert result.trace["full"]["events_captured"] > 0

        jsonl_path = result.trace["full"]["jsonl_path"]
        assert jsonl_path is not None and str(tmp_path) in jsonl_path
        lines = [
            json.loads(line)
            for line in open(jsonl_path, encoding="utf-8")
            if line.strip()
        ]
        assert len(lines) == result.trace["full"]["events_captured"]
        assert all("probe" in event and "t" in event for event in lines)
        probes_seen = {event["probe"] for event in lines}
        assert "message_dispatched" in probes_seen
        assert "node_decided" in probes_seen

    def test_same_key_specs_get_distinct_jsonl_files(self, tmp_path, monkeypatch):
        # Specs that share a key but differ in params (the answer-budget
        # ablation's shape) must not overwrite each other's streams.
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        specs = [
            ExperimentSpec(
                n=24, adversary="silent", seed=0, trace="full",
                params={"answer_budget": budget},
            )
            for budget in (2, 10_000)
        ]
        assert specs[0].key == specs[1].key
        paths = {spec.run().trace["full"]["jsonl_path"] for spec in specs}
        assert len(paths) == 2
        assert all(p is not None for p in paths)

    def test_full_without_dir_buffers_in_memory(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
        result = ExperimentSpec(n=24, seed=0, trace="full").run()
        assert result.trace["full"]["jsonl_path"] is None
        assert result.trace["full"]["events_captured"] > 0

    def test_full_and_summary_agree_on_aggregates(self):
        summary = ExperimentSpec(n=24, seed=1, trace="summary").run().trace
        full = ExperimentSpec(n=24, seed=1, trace="full").run().trace
        assert summary["events"] == full["events"]
        assert summary["message_kinds"] == full["message_kinds"]
        assert summary["push"] == full["push"]

    def test_buffer_cap_counts_dropped_events(self):
        collector = TraceCollector(mode="full", max_buffered_events=3)
        for i in range(10):
            collector.phase_started(i, "push")
        assert len(collector.events) == 3
        summary = collector.summary()
        assert summary.full["events_captured"] == 10
        assert summary.full["events_dropped"] == 7


class TestCollectorForSpec:
    def test_off_returns_none(self):
        assert collector_for_spec(ExperimentSpec(n=8)) is None

    def test_summary_builds_collector_without_sink(self):
        collector = collector_for_spec(ExperimentSpec(n=8, trace="summary"))
        assert collector is not None and collector.jsonl_path is None
        collector.close()


class TestMultiStageTrace:
    def test_full_ba_merges_both_stages(self):
        result = ExperimentSpec(n=32, protocol="full_ba", seed=0, trace="summary").run()
        trace = result.trace
        # stage-1 committee traffic and stage-2 AER traffic both present
        assert trace["message_kinds"]["push"]["messages"] > 0
        assert trace["events"]["poll_started"] > 0
        # kernel-level totals cover both stages
        kinds = trace["message_kinds"]
        byz = trace["byzantine_message_kinds"]
        total = sum(v["messages"] for v in kinds.values()) + sum(
            v["messages"] for v in byz.values()
        )
        assert total == result.total_messages

    def test_baseline_kernel_level_trace(self):
        result = ExperimentSpec(
            n=32, protocol="sample_majority", seed=0, trace="summary"
        ).run()
        trace = result.trace
        assert trace["candidates"] is None  # no candidate lists in the baseline
        assert trace["events"]["poll_answered"] > 0
        assert trace["message_kinds"]["query"]["messages"] > 0
