"""Fault-injection subsystem: schedules, injectors, both schedulers, CLI.

The contract, each half pinned here:

* **Declarative schedules** — every knob is range-checked with the offending
  key named; every no-op spelling collapses to the canonical ``"{}"`` at
  spec construction; non-trivial schedules suffix the human key with
  ``:flt`` and change the content-addressed ``spec_key``.
* **Deterministic injection** — the injector draws only from dedicated
  ``derive_rng(seed, "faults", ...)`` streams, so a faulted run is a pure
  function of the spec, partitions consume no randomness, and the fault-off
  path is byte-identical to a build without the subsystem (pinned by the
  golden matrix in ``test_engine_golden.py``).
* **End-to-end surfacing** — every fault family is exercised under both
  schedulers; injected-event counters ride on ``RunResult.extras``; trace
  probes record crash/recovery/drop events; the CLI accepts ``--fault``
  knobs and rejects bad ones with the key named.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.cli import main as cli_main
from repro.experiments.plan import ExperimentPlan, ExperimentSpec
from repro.faults import (
    FaultInjector,
    FaultSchedule,
    PartitionWindow,
    injector_for_spec,
)
from repro.store.keys import spec_key


# ----------------------------------------------------------------------
# schedule validation and canonicalization
# ----------------------------------------------------------------------
class TestFaultSchedule:
    @pytest.mark.parametrize(
        "knobs, key",
        [
            ({"loss_rate": 1.0}, "loss_rate"),
            ({"loss_rate": -0.1}, "loss_rate"),
            ({"churn_rate": 1.5}, "churn_rate"),
            ({"churn_rate": 0.1, "recovery_rate": -1.0}, "recovery_rate"),
            ({"churn_rate": 0.1, "churn_start": -2.0}, "churn_start"),
            ({"slow_fraction": 2.0}, "slow_fraction"),
            ({"slow_fraction": 0.5, "slow_factor": 0.5}, "slow_factor"),
            ({"byzantine_factor": 0.0}, "byzantine_factor"),
            ({"loss_rate": "high"}, "loss_rate"),
        ],
    )
    def test_bad_knob_names_the_key(self, knobs, key):
        with pytest.raises(ValueError, match=key):
            FaultSchedule.from_dict(knobs)

    def test_unknown_key_is_named(self):
        with pytest.raises(ValueError, match="drop_rate"):
            FaultSchedule.from_dict({"drop_rate": 0.1})

    def test_churn_start_without_churn_is_rejected(self):
        with pytest.raises(ValueError, match="churn_start"):
            FaultSchedule.from_dict({"churn_start": 3.0})

    @pytest.mark.parametrize(
        "window, match",
        [
            ({"start": 3.0, "end": 1.0}, "start < end"),
            ({"start": 1.0, "end": 2.0, "fraction": 0.0}, "fraction"),
            ({"start": 1.0}, "'start' and 'end'"),
            ({"start": 1.0, "end": 2.0, "cut": 0.5}, "cut"),
            ("not-a-window", "mapping"),
        ],
    )
    def test_bad_partition_window(self, window, match):
        with pytest.raises(ValueError, match=match):
            FaultSchedule.from_dict({"partitions": [window]})

    def test_noop_spellings_collapse(self):
        assert FaultSchedule().is_noop
        assert FaultSchedule.from_dict({"loss_rate": 0.0}).is_noop
        assert FaultSchedule.from_json("{}").to_json() == "{}"
        assert FaultSchedule.from_dict({"loss_rate": 0.0}).to_json() == "{}"

    def test_canonical_json_round_trips(self):
        schedule = FaultSchedule(
            loss_rate=0.1,
            churn_rate=0.05,
            partitions=(PartitionWindow(1.0, 3.0),),
        )
        text = schedule.to_json()
        assert FaultSchedule.from_json(text) == schedule
        assert FaultSchedule.from_json(text).to_json() == text

    def test_invalid_json_is_a_value_error(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultSchedule.from_json("{trunc")

    def test_delay_classes_rejected_under_sync(self):
        schedule = FaultSchedule(slow_fraction=0.5, slow_factor=4.0)
        schedule.validate_for_mode("async")
        with pytest.raises(ValueError, match="mode='async'"):
            schedule.validate_for_mode("sync")


# ----------------------------------------------------------------------
# spec-level plumbing: canonical field, key suffix, content addressing
# ----------------------------------------------------------------------
class TestSpecPlumbing:
    def test_spec_canonicalizes_every_noop_spelling(self):
        base = ExperimentSpec(n=24)
        assert base.faults == "{}"
        assert base.with_(faults={}) == base
        assert base.with_(faults={"loss_rate": 0.0, "slow_factor": 1.0}) == base
        assert base.with_(faults='{"churn_rate": 0.0}') == base

    def test_key_suffix_and_spec_key_react_to_faults(self):
        base = ExperimentSpec(n=24)
        faulted = base.with_(faults={"loss_rate": 0.1})
        assert not base.key.endswith(":flt")
        assert faulted.key.endswith(":flt")
        assert spec_key(base) != spec_key(faulted)
        # a different schedule is a different key; the same schedule is a hit
        assert spec_key(faulted) != spec_key(base.with_(faults={"loss_rate": 0.2}))
        assert spec_key(faulted) == spec_key(base.with_(faults='{"loss_rate":0.1}'))

    def test_spec_dict_round_trips_faults(self):
        spec = ExperimentSpec(
            n=24,
            mode="async",
            faults={"loss_rate": 0.1, "partitions": [{"start": 0.5, "end": 1.0}]},
        )
        data = spec.to_dict()
        assert data["faults"] == spec.faults_dict()
        assert ExperimentSpec.from_dict(data) == spec
        assert ExperimentSpec.from_dict(json.loads(json.dumps(data))) == spec

    def test_bad_fault_knob_fails_at_spec_construction(self):
        with pytest.raises(ValueError, match="loss_rate"):
            ExperimentSpec(n=24, faults={"loss_rate": 2.0})

    def test_every_default_spelling_has_one_spec_key(self):
        spellings = ["{}", {}, {"loss_rate": 0.0}, FaultSchedule()]
        specs = [ExperimentSpec(n=24, faults=faults) for faults in spellings]
        assert {spec.faults for spec in specs} == {"{}"}
        assert len({spec_key(spec) for spec in specs}) == 1
        assert len({spec_key(ExperimentSpec.from_dict(spec.to_dict())) for spec in specs}) == 1

    @pytest.mark.parametrize("faults, named", [
        ({"loss_rat": 0.1}, "loss_rat"),
        ('{"loss_rat": 0.1}', "loss_rat"),
        ({"loss_rate": -0.5}, "loss_rate"),
        ({"churn_rate": "fast"}, "churn_rate"),
        ("", "not valid JSON"),
        ([], "mapping"),
    ])
    def test_bad_fault_keys_and_values_still_raise_by_name(self, faults, named):
        with pytest.raises(ValueError, match=named):
            ExperimentSpec(n=24, faults=faults)
        with pytest.raises(ValueError, match=named):
            ExperimentPlan(ns=(24,), faults=faults)

    def test_unknown_spec_and_plan_keys_are_named(self):
        data = ExperimentSpec(n=24).to_dict()
        with pytest.raises(ValueError, match="unknown experiment spec key.*bogus"):
            ExperimentSpec.from_dict({**data, "bogus": 1})
        with pytest.raises(ValueError, match="unknown experiment plan key.*bogus"):
            ExperimentPlan.from_dict({**ExperimentPlan(ns=(24,)).to_dict(), "bogus": 1})

    def test_sync_spec_with_delay_classes_fails_validation(self):
        spec = ExperimentSpec(n=24, mode="sync", faults={"byzantine_factor": 0.5})
        with pytest.raises(ValueError, match="mode='async'"):
            spec.validate()

    def test_plan_threads_shared_faults_into_every_spec(self):
        plan = ExperimentPlan(ns=(24, 32), seeds=(0,), faults={"loss_rate": 0.1})
        specs = plan.specs()
        assert len(specs) == 2
        assert all(s.faults_dict() == {"loss_rate": 0.1} for s in specs)
        assert ExperimentPlan.from_dict(plan.to_dict()) == plan

    def test_non_aer_protocols_reject_faults(self):
        from repro.protocols import get_protocol

        spec = ExperimentSpec(
            n=24, protocol="naive_broadcast", faults={"loss_rate": 0.1}
        )
        with pytest.raises(ValueError, match="naive_broadcast"):
            spec.validate()
        relaxed = get_protocol("naive_broadcast").relax_spec(spec)
        assert relaxed.faults == "{}"
        relaxed.validate()

    def test_vectorized_backend_rejects_faults(self):
        spec = ExperimentSpec(
            n=24, backend="vectorized", faults={"loss_rate": 0.1}
        )
        with pytest.raises(ValueError, match="vectorized"):
            spec.validate()


# ----------------------------------------------------------------------
# injector unit behaviour
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_noop_schedules_build_no_injector(self):
        assert injector_for_spec(ExperimentSpec(n=24)) is None
        assert injector_for_spec(
            ExperimentSpec(n=24, faults={"loss_rate": 0.0})
        ) is None
        assert injector_for_spec(
            ExperimentSpec(n=24, faults={"loss_rate": 0.1})
        ) is not None

    def test_partitions_consume_no_randomness(self):
        """The loss stream must be identical with and without a partition."""
        deliveries = [(s, d, 5.0) for s in range(6) for d in range(6) if s != d]

        def drop_pattern(schedule):
            injector = FaultInjector(schedule, n=24, seed=7)
            injector.bind_population(range(24), ())
            return [injector.should_drop(*args) for args in deliveries]

        loss_only = drop_pattern(FaultSchedule(loss_rate=0.3))
        # window [0, 2) is inactive at time 5.0: same draws, same pattern
        with_partition = drop_pattern(
            FaultSchedule(loss_rate=0.3, partitions=(PartitionWindow(0.0, 2.0),))
        )
        assert loss_only == with_partition

    def test_partition_drops_only_cross_side_during_window(self):
        injector = FaultInjector(
            FaultSchedule(partitions=(PartitionWindow(1.0, 3.0, fraction=0.5),)),
            n=10,
            seed=0,
        )
        injector.bind_population(range(10), ())
        assert injector.should_drop(0, 9, 2.0)  # cross-side, window active
        assert not injector.should_drop(0, 4, 2.0)  # same side
        assert not injector.should_drop(0, 9, 0.5)  # before the window
        assert not injector.should_drop(0, 9, 3.0)  # healed
        assert injector.dropped_partition == 1

    def test_down_destination_drops_and_recovery_restores(self):
        injector = FaultInjector(
            FaultSchedule(churn_rate=0.999, recovery_rate=1.0), n=4, seed=1
        )
        injector.bind_population(range(4), ())
        injector.advance_time(1.0)
        assert injector.crashes > 0
        crashed = next(i for i in range(4) if injector.is_down(i))
        assert injector.should_drop(0, crashed, 1.0)
        assert injector.dropped_down == 1
        injector.advance_time(2.0)  # recovery_rate=1.0 brings everyone back
        assert not injector.is_down(crashed)
        assert injector.recoveries > 0

    def test_churn_start_delays_the_first_draws(self):
        schedule = FaultSchedule(churn_rate=0.999, churn_start=5.0)
        injector = FaultInjector(schedule, n=8, seed=1)
        injector.bind_population(range(8), ())
        injector.advance_time(4.9)
        assert injector.crashes == 0
        injector.advance_time(5.0)
        assert injector.crashes > 0

    def test_delay_classes_are_deterministic_and_scoped(self):
        schedule = FaultSchedule(slow_fraction=0.5, slow_factor=3.0,
                                 byzantine_factor=0.25)
        a = FaultInjector(schedule, n=10, seed=3)
        b = FaultInjector(schedule, n=10, seed=3)
        correct, byzantine = range(8), (8, 9)
        a.bind_population(correct, byzantine)
        b.bind_population(correct, byzantine)
        scales_a = [a.delay_scale(i) for i in range(10)]
        assert scales_a == [b.delay_scale(i) for i in range(10)]
        assert scales_a.count(3.0) == 4  # round(0.5 * 8) slow correct nodes
        assert all(a.delay_scale(i) == 0.25 for i in byzantine)

    def test_injector_is_a_pure_function_of_spec(self):
        spec = ExperimentSpec(
            n=32, seed=5, faults={"loss_rate": 0.1, "churn_rate": 0.05}
        )
        first, second = spec.run(), spec.run()
        assert first.to_dict() == second.to_dict()
        assert first.extras["fault_dropped_loss"] > 0


# ----------------------------------------------------------------------
# end-to-end: every fault family under both schedulers
# ----------------------------------------------------------------------
class TestBothSchedulers:
    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_loss_erodes_but_counts_stay_consistent(self, mode):
        clean = ExperimentSpec(n=32, mode=mode, seed=0).run()
        lossy = ExperimentSpec(
            n=32, mode=mode, seed=0, faults={"loss_rate": 0.15}
        ).run()
        assert lossy.extras["fault_dropped_loss"] > 0
        assert lossy.decided_count <= clean.decided_count
        # dropped messages count as sent, never as received
        assert lossy.total_messages > 0

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_churn_crashes_and_recovers(self, mode):
        result = ExperimentSpec(
            n=32, mode=mode, seed=1,
            faults={"churn_rate": 0.05, "recovery_rate": 0.5},
        ).run()
        assert result.extras["fault_crashes"] > 0
        assert result.extras["fault_dropped_down"] >= 0

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_partition_blocks_cross_side_traffic(self, mode):
        window = {"start": 1.0, "end": 3.0} if mode == "sync" else {
            "start": 0.2, "end": 1.0}
        result = ExperimentSpec(
            n=32, mode=mode, seed=2, faults={"partitions": [window]}
        ).run()
        assert result.extras["fault_dropped_partition"] > 0

    @pytest.mark.parametrize("policy", ["pareto", "lognormal"])
    def test_heavy_tail_policies_run_with_delay_classes(self, policy):
        result = ExperimentSpec(
            n=32, mode="async", seed=3, adversary="equivocate",
            params={"delay_policy": policy},
            faults={"slow_fraction": 0.25, "slow_factor": 4.0,
                    "byzantine_factor": 0.5},
        ).run()
        assert result.extras["fault_slow_nodes"] > 0
        assert result.span is not None and result.span > 0

    @pytest.mark.parametrize("policy, bad", [
        ("pareto", {"alpha": 0.0}),
        ("pareto", {"scale": 0.0}),
        ("lognormal", {"sigma": 0.0}),
    ])
    def test_heavy_tail_policy_params_are_validated(self, policy, bad):
        from repro.net.asynchronous import make_delay_policy

        with pytest.raises(ValueError):
            make_delay_policy(policy, **bad)

    def test_trace_probes_record_injected_events(self):
        result = ExperimentSpec(
            n=32, mode="sync", seed=1, trace="summary",
            faults={"loss_rate": 0.1, "churn_rate": 0.05},
        ).run()
        events = result.trace["events"]
        assert events["fault_dropped"] == (
            result.extras["fault_dropped_loss"]
            + result.extras["fault_dropped_partition"]
            + result.extras["fault_dropped_down"]
        )
        assert events["fault_crashed"] == result.extras["fault_crashes"]
        assert events["fault_recovered"] == result.extras["fault_recoveries"]

    def test_trace_summary_does_not_perturb_a_faulted_run(self):
        base = ExperimentSpec(
            n=32, mode="async", seed=4, faults={"loss_rate": 0.1}
        )
        off, on = base.run(), base.with_(trace="summary").run()
        assert off.to_dict() == on.with_trace(None).to_dict()


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestFaultCLI:
    def test_run_accepts_fault_knobs(self, capsys):
        assert cli_main([
            "run", "--n", "24", "--seed", "1", "--fault", "loss_rate=0.1",
        ]) == 0
        out = capsys.readouterr().out
        assert "fault_dropped_loss" in out
        assert ":flt" in out

    def test_run_rejects_bad_fault_knob_naming_it(self, capsys):
        assert cli_main([
            "run", "--n", "24", "--fault", "loss_rate=2.0",
        ]) == 2
        assert "loss_rate" in capsys.readouterr().err

    def test_sweep_threads_faults_through_the_plan(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert cli_main([
            "sweep", "--ns", "24", "--seeds", "0", "--jobs", "1",
            "--fault", "loss_rate=0.1", "--no-store", "--out", str(out),
        ]) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        record = data["records"][0]
        assert record["spec"]["faults"] == {"loss_rate": 0.1}
        assert record["extras"]["fault_dropped_loss"] > 0
