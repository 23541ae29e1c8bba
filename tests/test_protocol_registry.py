"""Tests for the protocol-registry API surface.

Covers the tentpole contract end to end: registry primitives, per-protocol
spec → JSON → worker → run round-trips, adversary/delay-policy/scenario
registry error paths, spec validation, the multi-protocol sweep + compare
flow, the CLI subcommands, and the ``repro.api`` facade.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro import api
from repro.adversary.registry import ADVERSARIES
from repro.adversary.strategies import SilentAdversary
from repro.experiments import (
    ExperimentPlan,
    ExperimentRecord,
    ExperimentSpec,
    SweepResult,
    SweepRunner,
    execute_spec,
)
from repro.experiments.cli import main as cli_main
from repro.net.asynchronous import ConstantDelayPolicy, make_delay_policy
from repro.protocols import get_protocol, list_protocols
from repro.registry import Registry

SMALL_N = 24
SEED = 3

#: (knob, bad value, the error validate() raises)
BAD_KNOB_VALUES = [
    ("mode", "warp", "unknown mode 'warp'"),
    ("wrong_candidate_mode", "bogus", "unknown wrong_candidate_mode 'bogus'"),
    ("knowledge_fraction", -0.2, r"knowledge_fraction must lie in \[0, 1\], got -0.2"),
    ("knowledge_fraction", 1.5, r"knowledge_fraction must lie in \[0, 1\], got 1.5"),
    # in range but infeasible: t = 4 of 24 leaves 20 correct nodes for a target of 23
    (
        "knowledge_fraction", 0.95,
        r"cannot make 23 of 20 correct nodes knowledgeable \(n=24, t=4, knowledge_fraction=0.95\)",
    ),
    ("quorum_multiplier", -1.0, "quorum_multiplier must be positive, got -1.0"),
    ("quorum_multiplier", 0.0, "quorum_multiplier must be positive, got 0.0"),
]

BUILTIN_PROTOCOLS = ("aer", "full_ba", "composed_ba", "sample_majority", "naive_broadcast")


class TestRegistryPrimitive:
    def test_register_get_and_names(self):
        reg = Registry("thing")
        reg.register("a", 1)
        assert reg.get("a") == 1
        assert reg.names() == ["a"]
        assert "a" in reg and "b" not in reg

    def test_decorator_form(self):
        reg = Registry("thing")

        @reg.register("f")
        def f():
            return 7

        assert reg.get("f") is f

    def test_duplicate_rejected_unless_replace(self):
        reg = Registry("thing")
        reg.register("a", 1)
        with pytest.raises(ValueError, match="already registered"):
            reg.register("a", 2)
        reg.register("a", 2, replace=True)
        assert reg.get("a") == 2

    def test_unknown_lists_known_names(self):
        reg = Registry("gadget")
        reg.register("known", 1)
        with pytest.raises(ValueError, match="unknown gadget 'nope'.*known"):
            reg.get("nope")


class TestProtocolRoundTrips:
    """register → spec → JSON → worker entry point → run, per built-in protocol."""

    @pytest.mark.parametrize("protocol", BUILTIN_PROTOCOLS)
    def test_spec_json_run_roundtrip(self, protocol):
        spec = ExperimentSpec(n=SMALL_N, protocol=protocol, seed=SEED)
        # JSON round-trip survives intact (what the sweep persistence relies on)
        wire = json.loads(json.dumps(spec.to_dict()))
        assert ExperimentSpec.from_dict(wire) == spec
        # the worker entry point runs it and the record round-trips too
        record = execute_spec(spec)
        assert record.spec == spec
        assert record.agreement  # all built-ins agree on the benign small case
        assert record.total_bits > 0
        assert record.max_node_bits > 0
        assert ExperimentRecord.from_dict(json.loads(json.dumps(record.to_dict()))) == record
        assert record.row()["protocol"] == protocol

    def test_protocol_params_roundtrip(self):
        spec = ExperimentSpec(
            n=SMALL_N, protocol="composed_ba", seed=SEED, params={"strategy": "naive"}
        )
        assert spec.params_dict() == {"strategy": "naive"}
        restored = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        record = execute_spec(restored)
        assert record.extras["strategy"] == "naive"

    def test_aer_adapter_matches_plain_runner(self, direct_aer_run):
        result = get_protocol("aer").run(
            ExperimentSpec(n=SMALL_N, adversary="silent", seed=SEED)
        )
        direct = direct_aer_run(SMALL_N, adversary="silent", seed=SEED)
        assert result.total_bits == direct.metrics_all.total_bits
        assert result.rounds == direct.rounds
        assert result.max_node_bits == direct.metrics.max_node_bits
        assert result.agreement == direct.agreement_reached

    def test_run_result_normalizes_composition(self):
        result = api.run_experiment("full_ba", n=SMALL_N, seed=SEED)
        stages = (result.raw.ae_result, result.raw.everywhere_result)
        assert result.rounds == sum(stage.rounds for stage in stages)
        assert result.max_node_bits >= max(s.metrics.max_node_bits for s in stages)
        assert result.amortized_bits == pytest.approx(
            sum(stage.metrics.total_bits for stage in stages) / SMALL_N
        )
        assert 0.0 <= result.extras["knowledge_after_ae"] <= 1.0

    def test_custom_protocol_plugs_into_sweep(self):
        from repro.protocols import PROTOCOLS, ProtocolAdapter, RunResult, register_protocol

        @register_protocol
        class EchoProtocol(ProtocolAdapter):
            name = "echo_test"
            params = {"payload": 1}

            def run(self, spec):
                p = self.resolve_params(spec)
                return RunResult(
                    protocol=self.name, n=spec.n, agreement=True,
                    decided_count=spec.n, correct_count=spec.n,
                    rounds=1, span=None, max_decision_time=None,
                    total_messages=0, total_bits=int(p["payload"]),  # type: ignore[arg-type]
                    amortized_bits=0.0, max_node_bits=0,
                    median_node_bits=0.0, load_imbalance=1.0,
                )

        try:
            sweep = SweepRunner(
                ExperimentPlan(ns=(8,), protocols=("echo_test",), params={"payload": 9}),
                jobs=1,
            ).run()
            assert sweep.records[0].total_bits == 9
        finally:
            PROTOCOLS.unregister("echo_test")


#: the persisted record layout (API: sweep files, store rows, dist frames)
RECORD_KEYS = [
    "spec", "seconds", "agreement", "decided_count", "correct_count", "rounds",
    "span", "max_decision_time", "total_messages", "total_bits", "amortized_bits",
    "max_node_bits", "median_node_bits", "load_imbalance", "extras", "trace",
]

#: ``RunResult.to_dict()``'s keys, in order (``stopped_by`` only when a cap fired)
RUN_RESULT_KEYS = ["protocol", "n"] + RECORD_KEYS[2:]

#: ``ExperimentSpec.to_dict()``'s keys, in field order
SPEC_KEYS = [
    "n", "protocol", "adversary", "mode", "rushing", "seed", "t", "knowledge_fraction",
    "wrong_candidate_mode", "quorum_multiplier", "label", "trace", "params", "backend",
    "faults",
]

#: a canonical-sweep record in the persisted layout: saved sweeps, store rows
#: and dist frames in this layout must load and re-serialise unchanged
LITERAL_RECORD = (
    '{"spec": {"n": 24, "protocol": "full_ba", "adversary": "none", "mode": "sync", '
    '"rushing": false, "seed": 1, "t": null, "knowledge_fraction": 0.78, '
    '"wrong_candidate_mode": "random", "quorum_multiplier": 2.0, "label": "", '
    '"trace": "off", "params": {}, "backend": "message", "faults": {}}, '
    '"seconds": 0.0, "agreement": true, "decided_count": 20, "correct_count": 20, '
    '"rounds": 10.0, "span": null, "max_decision_time": 4.0, "total_messages": 26164, '
    '"total_bits": 1142936, "amortized_bits": 47622.333333333336, '
    '"max_node_bits": 150562, "median_node_bits": 99987.0, '
    '"load_imbalance": 1.5058157560482863, "extras": {"knowledge_after_ae": 0.8333, '
    '"decided_gstring": 1.0, "ae_rounds": 6, "aer_rounds": 4}, "trace": null}'
)


class TestRecordSchema:
    """An ExperimentRecord is a RunResult; its JSON layout is unchanged."""

    @pytest.mark.parametrize("protocol", BUILTIN_PROTOCOLS)
    def test_record_keys_and_order(self, protocol):
        record = execute_spec(ExperimentSpec(n=SMALL_N, protocol=protocol, seed=SEED))
        assert list(record.to_dict()) == RECORD_KEYS
        assert (record.protocol, record.n, record.raw) == (protocol, SMALL_N, None)

    def test_capped_record_appends_stopped_by(self):
        spec = ExperimentSpec(n=SMALL_N, seed=SEED, params={"max_rounds": 2})
        assert list(execute_spec(spec).to_dict()) == RECORD_KEYS + ["stopped_by"]

    @pytest.mark.parametrize("stopped_by", [None, "max_rounds"])
    def test_literal_record_round_trips_byte_for_byte(self, stopped_by):
        data = json.loads(LITERAL_RECORD)
        if stopped_by is not None:
            data["stopped_by"] = stopped_by
        text = json.dumps(data)
        record = ExperimentRecord.from_dict(json.loads(text))
        assert (record.protocol, record.n, record.stopped_by) == ("full_ba", 24, stopped_by)
        assert json.dumps(record.to_dict()) == text

    def test_run_result_keys_and_order(self):
        result = api.run_experiment("full_ba", n=SMALL_N, seed=SEED)
        assert list(result.to_dict()) == RUN_RESULT_KEYS
        capped = replace(result, stopped_by="max_rounds")
        assert list(capped.to_dict()) == RUN_RESULT_KEYS + ["stopped_by"]

    def test_spec_keys_and_order(self):
        assert list(ExperimentSpec(n=SMALL_N).to_dict()) == SPEC_KEYS

    def test_to_dict_never_reads_raw(self):
        class Untouchable:
            def __deepcopy__(self, memo):
                raise AssertionError("raw was deep-copied")

            def __getattr__(self, name):
                raise AssertionError(f"raw.{name} was read")

        result = api.run_experiment("full_ba", n=SMALL_N, seed=SEED)
        wire = replace(result, raw=Untouchable()).to_dict()
        assert wire == result.to_dict() and "raw" not in wire

    def test_to_dict_copies_extras_and_trace(self):
        spec = ExperimentSpec(n=SMALL_N, protocol="full_ba", seed=SEED, trace="summary")
        record = execute_spec(spec)
        before = json.dumps(record.to_dict())
        wire = record.to_dict()
        wire["extras"]["ae_rounds"] = -1
        wire["extras"]["added"] = True
        wire["trace"]["events"].clear()
        wire["trace"]["mode"] = "mutated"
        assert json.dumps(record.to_dict()) == before
        assert "added" not in record.extras and record.trace["events"]

    def test_from_stages_defers_to_from_loads(self):
        from repro.net.metrics import MetricsSummary

        result = api.run_experiment("full_ba", n=SMALL_N, seed=SEED)
        stages = (result.raw.ae_result, result.raw.everywhere_result)
        summed = {}
        for stage in stages:
            for node, bits in stage.metrics.per_node_bits.items():
                summed[node] = summed.get(node, 0) + bits
        loads = MetricsSummary.from_loads(
            SMALL_N, 0, sum(s.metrics_all.total_bits for s in stages), summed, {}, None, None
        )
        assert result.total_bits == loads.total_bits
        assert result.amortized_bits == loads.amortized_bits
        assert result.max_node_bits == loads.max_node_bits
        assert result.median_node_bits == loads.median_node_bits
        assert isinstance(result.median_node_bits, float)
        assert result.load_imbalance == loads.load_imbalance


class TestSpecValidation:
    def test_unknown_protocol(self):
        with pytest.raises(ValueError, match="unknown protocol 'bogus'"):
            ExperimentSpec(n=SMALL_N, protocol="bogus").validate()

    def test_rushing_under_async_rejected(self):
        spec = ExperimentSpec(n=SMALL_N, mode="async", rushing=True)
        with pytest.raises(ValueError, match="rushing.*sync"):
            spec.validate()

    def test_unknown_param_names_the_key(self):
        spec = ExperimentSpec(n=SMALL_N, params={"frobnicate": 1})
        with pytest.raises(ValueError, match="frobnicate.*'aer'"):
            spec.validate()

    def test_knob_not_accepted_by_protocol(self):
        spec = ExperimentSpec(n=SMALL_N, protocol="composed_ba", adversary="silent")
        with pytest.raises(ValueError, match="'composed_ba' does not accept.*adversary"):
            spec.validate()

    @pytest.mark.parametrize(
        "spec",
        [
            ExperimentSpec(n=64, params={"adversary": "silent"}),
            ExperimentSpec(n=64, params={"mode": "async"}),
            ExperimentSpec(n=64, backend="vectorized", params={"mode": "async"}),
            ExperimentSpec(n=64, rushing=True, params={"mode": "async"}),
            ExperimentSpec(
                n=64,
                mode="async",
                params={"mode": "sync"},
                faults={"slow_fraction": 0.2, "slow_factor": 2.0},
            ),
        ],
        ids=["adversary", "mode", "vectorized-async", "rushing-async", "sync-slow-nodes"],
    )
    def test_knob_spelled_as_a_param_is_rejected(self, spec):
        # the spec field is a knob's only spelling: a params entry would run
        # under the key (and validation) of the field it shadows
        (knob,) = spec.params_dict()
        flag = "--" + knob.replace("_", "-")
        with pytest.raises(ValueError, match=f"'{knob}' is a spec field.*{flag}"):
            spec.validate()

    @pytest.mark.parametrize("knob, value, message", BAD_KNOB_VALUES)
    def test_knob_values_are_checked_at_validate(self, knob, value, message):
        # a bad value fails here, not in a sweep worker or halfway through a run
        with pytest.raises(ValueError, match=message):
            ExperimentSpec(n=SMALL_N, **{knob: value}).validate()

    @pytest.mark.parametrize("protocol", ["aer", "sample_majority", "naive_broadcast"])
    @pytest.mark.parametrize(
        "knob, value", [("knowledge_fraction", 0.95), ("wrong_candidate_mode", "common_wrong")]
    )
    def test_from_ae_rejects_the_scenario_knobs_it_ignores(self, protocol, knob, value):
        base = ExperimentSpec(n=SMALL_N, protocol=protocol, params={"scenario": "from_ae"})
        base.validate()  # the defaults are fine
        with pytest.raises(ValueError, match=f"from_ae.*{knob}"):
            base.with_(**{knob: value}).validate()

    def test_adapters_take_knobs_as_fields_and_extras_as_params(self):
        for name in list_protocols():
            adapter = get_protocol(name)
            assert set(adapter.knobs) <= set(ExperimentSpec.KNOBS), name
            assert not set(adapter.params) & set(ExperimentSpec.KNOBS), name

    def test_unsupported_mode(self):
        spec = ExperimentSpec(n=SMALL_N, protocol="naive_broadcast", mode="async")
        with pytest.raises(ValueError, match="does not support mode 'async'"):
            spec.validate()

    def test_delay_policy_under_sync_rejected(self):
        spec = ExperimentSpec(n=SMALL_N, params={"delay_policy": "constant"})
        with pytest.raises(ValueError, match="delay_policy.*async"):
            spec.validate()

    @pytest.mark.parametrize("t", [-1, SMALL_N, SMALL_N + 24])
    @pytest.mark.parametrize(
        "protocol", ["aer", "full_ba", "composed_ba", "sample_majority", "naive_broadcast"]
    )
    def test_t_out_of_range_rejected_before_anything_runs(self, protocol, t):
        spec = ExperimentSpec(n=SMALL_N, protocol=protocol, t=t)
        with pytest.raises(ValueError, match="0 <= t < n"):
            spec.validate()

    @pytest.mark.parametrize("protocol", BUILTIN_PROTOCOLS)
    def test_unset_t_at_n1_leaves_nobody_correct(self, protocol):
        # ExperimentSpec.byzantine_count corrupts at least one node
        with pytest.raises(ValueError, match=r"0 <= t < n.*\(got t=1 with n=1\)"):
            ExperimentSpec(n=1, protocol=protocol).validate()

    def test_from_dict_rejects_unknown_spec_key(self):
        with pytest.raises(ValueError, match="unknown experiment spec key.*bogus_key"):
            ExperimentSpec.from_dict({"n": SMALL_N, "bogus_key": 1})

    def test_from_dict_rejects_unknown_plan_key(self):
        with pytest.raises(ValueError, match="unknown experiment plan key.*bogus_key"):
            ExperimentPlan.from_dict({"ns": [SMALL_N], "bogus_key": 1})

    def test_async_only_plan_with_rushing_has_no_rushing_specs(self):
        # plan-level rushing only applies to sync specs; an async grid stays valid
        plan = ExperimentPlan(ns=(SMALL_N,), modes=("async",), rushing=True)
        assert all(not spec.rushing for spec in plan.specs())

    def test_mixed_mode_plan_with_rushing_stays_runnable(self):
        plan = ExperimentPlan(ns=(SMALL_N,), modes=("sync", "async"), rushing=True)
        by_mode = {spec.mode: spec.rushing for spec in plan.specs()}
        assert by_mode == {"sync": True, "async": False}
        plan.validate()  # must not raise

    def test_params_canonical_across_spellings(self):
        a = ExperimentSpec(n=8, params={"a": 1, "strategy": "naive"})
        b = ExperimentSpec(n=8, params=(("strategy", "naive"), ("a", 1)))
        assert a == b and hash(a) == hash(b)

    def test_params_values_roundtrip_exactly(self):
        # lists of pairs must stay lists, empty dicts must stay dicts
        params = {"matrix": [["x", 1], ["y", 2]], "empty": {}, "flag": True}
        spec = ExperimentSpec(n=8, params=params)
        assert spec.params_dict() == params
        restored = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        assert restored.params_dict() == params

    def test_non_json_params_rejected(self):
        with pytest.raises(ValueError, match="JSON-serializable"):
            ExperimentSpec(n=8, params={"bad": object()})


class TestAdversaryRegistry:
    def test_unknown_name_lists_strategies(self, small_scenario, small_config, small_samplers):
        from repro.runner import make_adversary

        with pytest.raises(ValueError, match="unknown adversary 'nope'.*silent"):
            make_adversary("nope", small_scenario, small_config, small_samplers)

    def test_none_resolves_to_no_adversary(self, small_scenario, small_config, small_samplers):
        from repro.runner import make_adversary

        assert make_adversary("none", small_scenario, small_config, small_samplers) is None

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            api.register_adversary("silent")(SilentAdversary)

    def test_custom_adversary_runs_through_spec(self):
        @api.register_adversary("test_crash")
        class CrashOnly(SilentAdversary):
            pass

        try:
            result = api.run_experiment(
                "aer", n=SMALL_N, seed=SEED, adversary="test_crash"
            )
            assert result.agreement
        finally:
            ADVERSARIES.unregister("test_crash")


class TestDelayAndScenarioRegistries:
    def test_make_delay_policy(self):
        policy = make_delay_policy("constant", value=0.5)
        assert isinstance(policy, ConstantDelayPolicy)
        assert policy.value == 0.5
        with pytest.raises(ValueError, match="unknown delay policy"):
            make_delay_policy("teleport")

    def test_named_delay_policy_in_async_spec(self):
        result = api.run_experiment(
            "aer",
            n=SMALL_N,
            seed=SEED,
            mode="async",
            delay_policy="constant",
            delay_params={"value": 1.0},
        )
        assert result.agreement
        assert result.span is not None and result.span > 0

    def test_from_ae_scenario_generator(self):
        from repro.core.config import AERConfig
        from repro.protocols import make_scenario_by_name

        config = AERConfig.for_system(48)
        scenario = make_scenario_by_name("from_ae", 48, config, seed=1, t=8)
        assert scenario.n == 48
        assert len(scenario.gstring) == config.string_length
        # AER runs on the generated almost-everywhere state
        result = api.run_experiment("aer", n=48, seed=1, scenario="from_ae")
        assert result.decided_count == result.correct_count

    def test_unknown_scenario_generator(self):
        spec = ExperimentSpec(n=SMALL_N, params={"scenario": "martian"})
        with pytest.raises(ValueError, match="unknown scenario generator"):
            spec.run()


class TestMultiProtocolSweep:
    """The acceptance flow: one plan mixing aer, composed_ba and a baseline."""

    PLAN = ExperimentPlan(
        ns=(SMALL_N,),
        protocols=("aer", "composed_ba", "naive_broadcast"),
        seeds=(SEED, SEED + 1),
    )

    def test_mixed_plan_runs_and_roundtrips(self, tmp_path):
        sweep = SweepRunner(self.PLAN, jobs=1).run()
        assert len(sweep.records) == len(self.PLAN) == 6
        assert [r.spec.protocol for r in sweep.records[:3]] == [
            "aer", "aer", "composed_ba"
        ]
        path = tmp_path / "mix.json"
        sweep.save(str(path))
        loaded = SweepResult.load(str(path))
        assert loaded.plan == self.PLAN
        assert loaded.records == sweep.records
        assert {r.spec.protocol for r in loaded.records} == set(self.PLAN.protocols)

    def test_compare_rows_aggregate_across_seeds(self):
        from repro.analysis.experiments import compare_rows

        sweep = SweepRunner(self.PLAN, jobs=1).run()
        rows = compare_rows(sweep.records)
        assert [row["protocol"] for row in rows] == [
            "aer", "composed_ba", "naive_broadcast"
        ]
        for row in rows:
            assert row["runs"] == 2
            assert 0.0 <= row["agreement_rate"] <= 1.0
            assert row["total_bits"] > 0


class TestCLI:
    def test_run_other_protocol(self, capsys):
        code = cli_main([
            "run", "--n", str(SMALL_N), "--seed", str(SEED),
            "--protocol", "composed_ba", "--param", "strategy=naive",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"composed_ba:sync:none:n{SMALL_N}:s{SEED}" in out
        assert "strategy=naive" in out

    def test_run_rejects_bad_protocol(self, capsys):
        assert cli_main(["run", "--n", str(SMALL_N), "--protocol", "bogus"]) == 2
        assert "unknown protocol" in capsys.readouterr().err

    def test_run_rejects_t_leaving_no_correct_node(self, capsys):
        code = cli_main(["run", "--n", "16", "--protocol", "full_ba", "--t", "16"])
        assert code == 2
        assert "0 <= t < n" in capsys.readouterr().err

    def test_sweep_protocol_mix_writes_one_schema(self, tmp_path, capsys):
        out_path = tmp_path / "mix.json"
        code = cli_main([
            "sweep", "--ns", str(SMALL_N),
            "--protocols", "aer,composed_ba,naive_broadcast",
            "--seeds", str(SEED), "--jobs", "1", "--out", str(out_path),
        ])
        assert code == 0
        data = json.loads(out_path.read_text(encoding="utf-8"))
        protocols = [r["spec"]["protocol"] for r in data["records"]]
        assert protocols == ["aer", "composed_ba", "naive_broadcast"]
        keys = {frozenset(r) for r in data["records"]}
        assert len(keys) == 1  # one record schema across protocols
        assert "sweep of 3 experiments" in capsys.readouterr().out

    def test_compare_relaxes_unsupported_knobs(self, capsys):
        # composed_ba takes no adversary; the comparison must run anyway,
        # applying the adversary only to the protocols that accept it
        code = cli_main([
            "compare", "--ns", str(SMALL_N),
            "--protocols", "aer,composed_ba",
            "--adversary", "silent", "--seeds", str(SEED), "--jobs", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "aer" in out and "composed_ba" in out

    def test_compare_rejects_a_param_no_protocol_takes(self, capsys):
        code = cli_main([
            "compare", "--ns", "16", "--protocols", "aer,composed_ba",
            "--param", "strateggy=naive", "--jobs", "1",
        ])
        assert code == 2
        assert "no protocol in the plan takes parameter(s) 'strateggy'" in capsys.readouterr().err

    def test_compare_prints_cross_protocol_table(self, capsys):
        code = cli_main([
            "compare", "--ns", str(SMALL_N),
            "--protocols", "aer,composed_ba,naive_broadcast",
            "--seeds", str(SEED), "--jobs", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "protocol comparison" in out
        for column in ("agreement_rate", "total_bits", "max_node_bits", "rounds"):
            assert column in out
        for protocol in ("aer", "composed_ba", "naive_broadcast"):
            assert protocol in out

    def test_protocols_listing(self, capsys):
        assert cli_main(["protocols"]) == 0
        out = capsys.readouterr().out
        for protocol in BUILTIN_PROTOCOLS:
            assert protocol in out
        assert "delay policies" in out

    def test_spec_options_default_to_the_spec(self):
        from repro.experiments.cli import _from_args, build_parser

        def parsed(cls, *argv):
            return _from_args(cls, build_parser().parse_args(argv))

        assert parsed(ExperimentSpec, "run", "--n", "24") == ExperimentSpec(n=24)
        assert parsed(ExperimentPlan, "sweep", "--ns", "24") == ExperimentPlan(ns=(24,))
        assert parsed(
            ExperimentSpec, "run", "--n", "24", "--wrong-candidate-mode", "common_wrong"
        ) == ExperimentSpec(n=24, wrong_candidate_mode="common_wrong")

    @pytest.mark.parametrize("command", ["run --n 16", "compare --ns 16 --jobs 1"])
    def test_param_does_not_spell_a_knob(self, capsys, command):
        # compare relaxes the params a protocol does not take, but not this
        code = cli_main([*command.split(), "--param", "mode=async"])
        assert code == 2
        assert "--mode" in capsys.readouterr().err

    def test_param_requires_key_value(self, capsys):
        code = cli_main([
            "run", "--n", str(SMALL_N), "--param", "not-a-pair",
        ])
        assert code == 2
        assert "key=value" in capsys.readouterr().err


class TestApiFacade:
    def test_list_functions_cover_builtins(self):
        assert set(BUILTIN_PROTOCOLS) <= set(list_protocols())
        assert set(api.list_protocols()) == set(list_protocols())
        assert "silent" in api.list_adversaries()
        assert {"constant", "random"} <= set(api.list_delay_policies())
        assert {"synthetic", "from_ae"} <= set(api.list_scenarios())

    def test_spec_for_routes_kwargs(self):
        spec = api.spec_for(
            "composed_ba", SMALL_N, seed=SEED, label="x", strategy="naive"
        )
        assert spec.seed == SEED and spec.label == "x"
        assert spec.params_dict() == {"strategy": "naive"}

    def test_spec_for_validates(self):
        with pytest.raises(ValueError, match="does not accept"):
            api.spec_for("composed_ba", SMALL_N, adversary="silent")

    def test_compare_returns_sweep_and_rows(self):
        sweep, rows = api.compare(
            protocols=("sample_majority", "naive_broadcast"),
            ns=(SMALL_N,),
            seeds=(SEED,),
            jobs=1,
        )
        assert len(sweep.records) == 2
        assert [row["protocol"] for row in rows] == [
            "sample_majority", "naive_broadcast"
        ]

    def test_relaxed_plan_keeps_knob_names_for_validate(self):
        plan = ExperimentPlan(ns=(SMALL_N,), protocols=("aer", "composed_ba"), params={"mode": "async"})
        for spec in plan.relaxed().specs():
            with pytest.raises(ValueError, match="'mode' is a spec field"):
                spec.validate()

    def test_compare_relaxes_heterogeneous_mix(self):
        # shared adversary + a shared protocol param, over a mix where only
        # some protocols accept each: must run, not abort
        sweep, rows = api.compare(
            protocols=("aer", "composed_ba"),
            ns=(SMALL_N,),
            seeds=(SEED,),
            jobs=1,
            adversary="silent",
            params={"strategy": "naive"},
        )
        by_protocol = {r.spec.protocol: r.spec for r in sweep.records}
        assert by_protocol["aer"].adversary == "silent"
        assert by_protocol["aer"].params_dict() == {}  # strategy dropped for aer
        assert by_protocol["composed_ba"].adversary == "none"  # relaxed
        assert by_protocol["composed_ba"].params_dict() == {"strategy": "naive"}
        assert [row["protocol"] for row in rows] == ["aer", "composed_ba"]
