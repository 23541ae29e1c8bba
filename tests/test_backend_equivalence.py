"""The vectorized engine backend: golden equality, spec plumbing, statistics.

Three concerns share this file because they gate the same axis:

* **Golden equality** — the whole-round numpy engine must reproduce the
  per-message kernel *bit for bit* on the grids where it replays the kernel's
  RNG draw order (the CI form of the exact acceptance gate; the large-n
  statistical form runs as ``python -m repro equivalence --mode statistical``).
* **Spec plumbing** — the ``backend`` knob must round-trip through JSON,
  key-suffix correctly, and reject every unsupported combination loudly.
* **CI-overlap statistics** — :meth:`MeanEstimate.overlaps` and
  :func:`distributions_equivalent` are what "statistically equivalent" means
  at sizes where draw orders diverge.
"""

from __future__ import annotations

import pytest

from repro.analysis.equivalence import EXACT_ADVERSARIES, check_exact
from repro.analysis.statistics import (
    MeanEstimate,
    distributions_equivalent,
    mean_ci,
)
from repro.experiments.plan import ExperimentPlan, ExperimentSpec
from repro.protocols import get_protocol


class TestGoldenEquality:
    """Message kernel vs vectorized engine, bit for bit."""

    def test_aer_exact_over_adversary_grid(self):
        report = check_exact(
            ns=(48,),
            adversaries=("none", "silent", "push_flood", "quorum_flood"),
            seeds=(0,),
        )
        assert report.cases == 4
        assert report.mismatches == []

    def test_aer_exact_random_wrong_candidates(self):
        report = check_exact(
            ns=(64,), adversaries=("none",), seeds=(1,),
            wrong_candidate_mode="random",
        )
        assert report.mismatches == []

    @pytest.mark.parametrize("wrong_candidate_mode", ["common_wrong", "random"])
    def test_aer_exact_on_the_hash_path(self, monkeypatch, wrong_candidate_mode):
        # Whole records over repro.vec.hashing's rows, including quorums that
        # are the whole population (n=7: d = n) or most of it (n=12: d = 9),
        # where first_distinct_rows rejects the most colliding draws.
        import repro.vec.tables as tables
        from repro.core.config import AERConfig
        from repro.experiments.sweep import execute_spec
        from repro.samplers.tables import LRUCache

        monkeypatch.setattr(tables, "_PROVIDER_CACHE", LRUCache(4))
        assert [AERConfig.for_system(n).quorum_size for n in (7, 12)] == [7, 9]
        for n in (7, 12, 64):
            for adversary in EXACT_ADVERSARIES:
                spec = ExperimentSpec(
                    n=n, adversary=adversary, seed=3,
                    wrong_candidate_mode=wrong_candidate_mode,
                )
                message = execute_spec(spec).to_dict()
                vectorized = execute_spec(spec.with_(backend="vectorized")).to_dict()
                for data in (message, vectorized):
                    data.pop("seconds")
                    data["spec"].pop("backend")
                assert vectorized == message

    def test_sample_majority_exact(self):
        spec = {"n": 96, "protocol": "sample_majority", "adversary": "silent", "seed": 0}
        message = ExperimentSpec(**spec).run()
        vectorized = ExperimentSpec(**spec, backend="vectorized").run()
        assert vectorized.raw.decisions == message.raw.decisions
        assert vectorized.decided_count == message.decided_count
        assert vectorized.agreement == message.agreement
        assert vectorized.rounds == message.rounds
        assert vectorized.total_messages == message.total_messages
        assert vectorized.total_bits == message.total_bits
        assert vectorized.max_node_bits == message.max_node_bits

    def test_vectorized_runner_rejects_async_and_rushing(self):
        from repro.core.config import AERConfig
        from repro.core.scenario import make_scenario
        from repro.runner import run_aer

        n = 48
        config = AERConfig.for_system(n)
        scenario = make_scenario(n, config=config, t=max(1, n // 6), seed=0)
        with pytest.raises(ValueError, match="synchronous only"):
            run_aer(scenario, config=config, mode="async", backend="vectorized")
        with pytest.raises(ValueError, match="rushing"):
            run_aer(scenario, config=config, rushing=True, backend="vectorized")

    def test_runner_unknown_backend(self, small_scenario, small_config):
        from repro.runner import run_aer

        with pytest.raises(ValueError, match="unknown backend"):
            run_aer(small_scenario, config=small_config, backend="warp")


class TestBackendSpecPlumbing:
    def test_default_backend_is_message(self):
        assert ExperimentSpec(n=32).backend == "message"

    def test_key_suffix(self):
        assert ExperimentSpec(n=32).key == "sync:none:n32:s0"
        assert (
            ExperimentSpec(n=32, backend="vectorized").key == "sync:none:n32:s0:vec"
        )

    def test_spec_round_trips_through_json(self):
        spec = ExperimentSpec(n=64, backend="vectorized", wrong_candidate_mode="common_wrong")
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_plan_threads_backend_into_every_spec(self):
        plan = ExperimentPlan(ns=(32, 64), seeds=(0, 1), backend="vectorized")
        specs = plan.specs()
        assert specs and all(s.backend == "vectorized" for s in specs)
        assert ExperimentPlan.from_dict(plan.to_dict()).specs() == specs

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ExperimentSpec(n=32, backend="gpu").validate()

    def test_vectorized_rejects_async_rushing_trace(self):
        with pytest.raises(ValueError, match="synchronous only"):
            ExperimentSpec(n=32, mode="async", backend="vectorized").validate()
        with pytest.raises(ValueError, match="rushing"):
            ExperimentSpec(n=32, rushing=True, backend="vectorized").validate()
        with pytest.raises(ValueError, match="trac"):
            ExperimentSpec(n=32, trace="summary", backend="vectorized").validate()

    def test_message_only_protocol_rejects_vectorized(self):
        spec = ExperimentSpec(n=32, protocol="full_ba", backend="vectorized")
        with pytest.raises(ValueError, match="backend"):
            spec.validate()

    def test_vectorized_rejects_unsupported_adversary(self):
        spec = ExperimentSpec(n=32, adversary="equivocate", backend="vectorized")
        with pytest.raises(ValueError, match="adversar"):
            spec.validate()

    def test_relax_spec_reverts_backend(self):
        spec = ExperimentSpec(n=32, protocol="full_ba", backend="vectorized")
        relaxed = get_protocol("full_ba").relax_spec(spec)
        assert relaxed.backend == "message"
        relaxed.validate()

    def test_supports_backends_registry_surface(self):
        assert get_protocol("aer").supports_backends == ("message", "vectorized")
        assert get_protocol("sample_majority").supports_backends == (
            "message",
            "vectorized",
        )
        assert get_protocol("full_ba").supports_backends == ("message",)


class TestOverlapStatistics:
    def test_overlapping_intervals(self):
        a = MeanEstimate(mean=10.0, half_width=1.0, count=5)
        b = MeanEstimate(mean=11.5, half_width=1.0, count=5)
        assert a.overlaps(b) and b.overlaps(a)

    def test_disjoint_intervals(self):
        a = MeanEstimate(mean=10.0, half_width=1.0, count=5)
        b = MeanEstimate(mean=13.0, half_width=1.0, count=5)
        assert not a.overlaps(b) and not b.overlaps(a)

    def test_point_estimate_containment(self):
        point = MeanEstimate(mean=10.0, half_width=0.0, count=1)
        wide = MeanEstimate(mean=9.5, half_width=1.0, count=5)
        assert point.overlaps(wide)
        assert not point.overlaps(MeanEstimate(mean=12.0, half_width=1.0, count=5))

    def test_touching_intervals_overlap(self):
        a = MeanEstimate(mean=10.0, half_width=1.0, count=5)
        b = MeanEstimate(mean=12.0, half_width=1.0, count=5)
        assert a.overlaps(b)

    def test_distributions_equivalent_same_sample(self):
        sample = [8.0, 9.0, 10.0, 11.0, 12.0]
        assert distributions_equivalent(sample, sample)

    def test_distributions_equivalent_shifted_far(self):
        a = [10.0, 10.1, 10.2, 9.9, 9.8]
        b = [v + 5.0 for v in a]
        assert not distributions_equivalent(a, b)

    def test_z_widens_interval(self):
        a = [10.0, 10.2, 9.8, 10.1, 9.9]
        b = [v + 0.5 for v in a]
        assert not distributions_equivalent(a, b, z=1.96)
        assert distributions_equivalent(a, b, z=12.0)

    def test_mean_ci_overlap_matches_helper(self):
        a = [1.0, 2.0, 3.0]
        b = [2.5, 3.5, 4.5]
        assert distributions_equivalent(a, b) == mean_ci(a).overlaps(mean_ci(b))
