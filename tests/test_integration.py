"""End-to-end integration tests across schedulers, adversaries and seeds.

These tests exercise the complete stack (scenario synthesis → adversary →
simulator → protocol → metrics) the way the benchmarks do, and pin down the
paper's two headline guarantees at test scale:

* **safety** (Lemma 7): no correct node ever decides anything other than
  ``gstring``, under any implemented adversary, in any scheduler;
* **liveness / reach** (Lemmas 5, 6, 8): essentially every correct node
  decides, quickly in the synchronous non-rushing case.

The w.h.p. nature of the claims means single unlucky nodes can miss a
deterministic "everyone decided" assertion at small ``n`` (see
EXPERIMENTS.md); the statistical assertions below therefore allow a tiny
failure fraction while the safety assertions are absolute.
"""

from __future__ import annotations

import pytest

from repro.experiments.plan import ExperimentSpec
from repro.core.config import AERConfig
from repro.core.scenario import make_scenario
from repro.runner import make_adversary, run_aer

ADVERSARIES = [
    "none",
    "silent",
    "noise",
    "equivocate",
    "wrong_answer",
    "push_flood",
    "quorum_flood",
]


class TestSafetyUnderAllAdversaries:
    @pytest.mark.parametrize("adversary", ADVERSARIES + ["cornering"])
    def test_sync_decisions_are_always_gstring(self, medium_scenario, medium_config, adversary):
        samplers = medium_config.build_samplers()
        result = run_aer(
            medium_scenario,
            config=medium_config,
            adversary=make_adversary(adversary, medium_scenario, medium_config, samplers),
            seed=21,
            samplers=samplers,
        )
        assert all(v == medium_scenario.gstring for v in result.decisions.values())

    @pytest.mark.parametrize("adversary", ["wrong_answer", "cornering"])
    def test_async_decisions_are_always_gstring(self, small_scenario, small_config, adversary):
        samplers = small_config.build_samplers()
        result = run_aer(
            small_scenario,
            config=small_config,
            adversary=make_adversary(adversary, small_scenario, small_config, samplers),
            mode="async",
            seed=22,
            samplers=samplers,
        )
        assert all(v == small_scenario.gstring for v in result.decisions.values())


class TestLiveness:
    @pytest.mark.parametrize("adversary", ADVERSARIES)
    def test_sync_everyone_decides(self, medium_scenario, medium_config, adversary):
        samplers = medium_config.build_samplers()
        result = run_aer(
            medium_scenario,
            config=medium_config,
            adversary=make_adversary(adversary, medium_scenario, medium_config, samplers),
            seed=21,
            samplers=samplers,
        )
        assert result.agreement_reached
        assert result.rounds <= 8

    def test_rushing_sync_still_decides(self, medium_scenario, medium_config):
        samplers = medium_config.build_samplers()
        result = run_aer(
            medium_scenario,
            config=medium_config,
            adversary=make_adversary("cornering", medium_scenario, medium_config, samplers),
            rushing=True,
            seed=21,
            samplers=samplers,
        )
        assert result.fraction_decided(medium_scenario.gstring) >= 0.95

    def test_async_with_adversarial_delays_decides(self, small_scenario, small_config):
        samplers = small_config.build_samplers()
        result = run_aer(
            small_scenario,
            config=small_config,
            adversary=make_adversary("slow_knowledgeable", small_scenario, small_config, samplers),
            mode="async",
            seed=23,
            samplers=samplers,
        )
        assert result.fraction_decided(small_scenario.gstring) >= 0.95

    def test_multi_seed_reach_is_high(self):
        """Across several independent instances, essentially every node decides gstring."""
        total_nodes = 0
        decided_gstring = 0
        wrong = 0
        for seed in range(5):
            result = ExperimentSpec(n=48, adversary="wrong_answer", seed=seed).run().raw
            correct = len(result.correct_ids)
            total_nodes += correct
            value_counts = {}
            for node_id in result.correct_ids:
                value = result.decisions.get(node_id)
                value_counts[value] = value_counts.get(value, 0) + 1
            gstring = max(
                (v for v in value_counts if v is not None),
                key=lambda v: value_counts[v],
            )
            decided_gstring += value_counts.get(gstring, 0)
            wrong += sum(
                count for value, count in value_counts.items()
                if value is not None and value != gstring
            )
        assert wrong == 0
        assert decided_gstring / total_nodes >= 0.98


class TestRunnerInterface:
    def test_run_aer_experiment_default(self):
        result = ExperimentSpec(n=36, seed=2).run().raw
        assert result.agreement_reached

    def test_invalid_mode_rejected(self, small_scenario, small_config):
        with pytest.raises(ValueError):
            run_aer(small_scenario, config=small_config, mode="timewarp")

    def test_adversary_name_and_instance_both_work(self, small_scenario, small_config):
        samplers = small_config.build_samplers()
        by_name = run_aer(
            small_scenario, config=small_config, adversary_name="silent",
            seed=4, samplers=samplers,
        )
        explicit = run_aer(
            small_scenario, config=small_config,
            adversary=make_adversary("silent", small_scenario, small_config, samplers),
            seed=4, samplers=samplers,
        )
        assert by_name.metrics.total_bits == explicit.metrics.total_bits

    def test_restricted_metrics_exclude_byzantine_load(self, medium_scenario, medium_config):
        samplers = medium_config.build_samplers()
        result = run_aer(
            medium_scenario,
            config=medium_config,
            adversary=make_adversary("push_flood", medium_scenario, medium_config, samplers),
            seed=6,
            samplers=samplers,
        )
        byz = set(medium_scenario.byzantine_ids)
        assert not set(result.metrics.per_node_bits) & byz
        assert set(result.metrics_all.per_node_bits) & byz


class TestCostProfile:
    def test_amortized_cost_reasonable(self, medium_scenario, medium_config):
        result = run_aer(medium_scenario, config=medium_config, adversary_name="none", seed=1)
        # polylog target: d^3 * |s| with d=13..15, |s|=24 → order 10^5; far below n*|s| growth
        assert result.metrics.amortized_bits < 5e5

    def test_load_is_not_perfectly_balanced(self, medium_scenario, medium_config):
        result = run_aer(medium_scenario, config=medium_config, adversary_name="none", seed=1)
        assert result.metrics.load_imbalance >= 1.0

    def test_push_phase_cost_small_share(self, medium_scenario, medium_config):
        """Lemma 3: the push phase is a negligible O(s log n) share of the total."""
        samplers = medium_config.build_samplers()
        from repro.core.scenario import build_aer_nodes
        from repro.net.sync import SynchronousSimulator

        from repro.trace.collector import TraceCollector

        trace = TraceCollector("summary")
        nodes = build_aer_nodes(medium_scenario, medium_config, samplers=samplers, trace=trace)
        sim = SynchronousSimulator(
            nodes=nodes, n=medium_scenario.n, seed=1, size_model=medium_config.size_model(),
            trace=trace,
        )
        result = sim.run()
        phase_bits = trace.finalize()["phase_bits"]
        assert sum(phase_bits.values()) == result.metrics_all.total_bits
        assert 0 < phase_bits["push"] < 0.05 * result.metrics_all.total_bits
