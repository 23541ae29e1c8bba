"""Built-in protocol adapters: AER, the full BA composition, and the baselines.

One adapter per runnable protocol of the repo, all returning the normalized
:class:`~repro.protocols.base.RunResult`:

* ``aer`` — the paper's almost-everywhere-to-everywhere protocol (Section 3);
* ``full_ba`` — the headline two-stage BA composition (ae-substrate + AER);
* ``composed_ba`` — ae-substrate + a baseline everywhere stage (Figure 1b's
  ``O~(√n)`` and ``Ω(n²)`` columns, selected by the ``strategy`` param);
* ``sample_majority`` — the KLST11-style load-balanced baseline, standalone;
* ``naive_broadcast`` — the all-to-all broadcast baseline, standalone.

The ``aer``, ``sample_majority`` and ``naive_broadcast`` adapters draw their
input scenario from the same generator with the same seed, so a cross-protocol
``compare`` runs every protocol on *identical* almost-everywhere states.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.backends import VEC_ADVERSARIES, VEC_MAJORITY_ADVERSARIES
from repro.protocols.base import ProtocolAdapter, RunResult, register_protocol
from repro.protocols.scenarios import make_scenario_by_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.ba import BAResult
    from repro.core.config import AERConfig
    from repro.core.scenario import AERScenario
    from repro.net.asynchronous import DelayPolicy
    from repro.net.results import SimulationResult

# Naming, validating, storing or rendering a spec never imports the engine:
# every engine import below sits in the ``run`` body (or a helper only a run
# calls), the one place a spec actually executes.


def _gstring_extras(result: SimulationResult, scenario: AERScenario) -> Dict[str, object]:
    """Scalars every scenario-driven protocol reports alongside the metrics."""
    return {
        "scenario_knowledge_fraction": round(scenario.knowledge_fraction_of_all, 4),
        "decided_gstring": round(result.fraction_decided(scenario.gstring), 4),
    }


def _config_and_scenario(spec, p) -> Tuple[AERConfig, AERScenario]:
    """``n → (config, scenario)``, derived once for AER and the baselines.

    Every scenario-driven adapter goes through here with the same seed, so a
    cross-protocol comparison runs on identical almost-everywhere states.
    """
    from repro.core.config import AERConfig

    n, seed = spec.n, spec.seed
    t = spec.t if spec.t is not None else max(1, n // 6)
    config = AERConfig.for_system(
        n, sampler_seed=seed, quorum_multiplier=spec.quorum_multiplier
    )
    scenario = make_scenario_by_name(
        str(p["scenario"]),
        n,
        config,
        seed,
        t=t,
        knowledge_fraction=spec.knowledge_fraction,
        wrong_candidate_mode=spec.wrong_candidate_mode,
    )
    return config, scenario


def _validate_scenario(spec, p) -> None:
    """``from_ae`` draws knowledge from a substrate run: no scenario knob applies."""
    if p["scenario"] != "from_ae":
        return
    for knob in ("knowledge_fraction", "wrong_candidate_mode"):
        if knob in spec.changed_knobs():
            raise ValueError(
                f"scenario='from_ae' generates its own knowledge state and "
                f"ignores {knob} (got {knob}={getattr(spec, knob)!r}); leave "
                "it at its default or use scenario='synthetic'"
            )


def _traced(run_result: RunResult, trace) -> RunResult:
    """Attach the collector's condensed block when the spec asked for one."""
    return run_result if trace is None else run_result.with_trace(trace.finalize())


def _ae_extras(result: BAResult) -> Dict[str, object]:
    """Scalars every ae-stage composition reports alongside the metrics."""
    return {
        "knowledge_after_ae": round(result.knowledge_fraction_after_ae, 4),
        "decided_gstring": round(
            result.everywhere_result.fraction_decided(result.gstring), 4
        ),
        "ae_rounds": result.ae_result.rounds,
    }


def _composition(name: str, result: BAResult, extras: Dict[str, object], trace) -> RunResult:
    """Both stage results go to :meth:`RunResult.from_stages`, the only place
    stages are added up."""
    stages = (result.ae_result, result.everywhere_result)
    return _traced(RunResult.from_stages(name, stages, raw=result, extras=extras), trace)


def _resolve_delay_policy(params: Dict[str, object]) -> Optional[DelayPolicy]:
    name = params.get("delay_policy")
    if not name:
        return None
    from repro.net.asynchronous import make_delay_policy

    policy_params = dict(params.get("delay_params") or {})  # type: ignore[call-overload]
    return make_delay_policy(str(name), **policy_params)


@register_protocol
class AERProtocolAdapter(ProtocolAdapter):
    """The paper's AER protocol on a named scenario generator.

    The defaults (``t = n/6`` corrupted nodes, 78% of all nodes correct and
    knowledgeable — i.e. essentially all correct nodes, which the paper's
    "all but a 1/4 fraction of the correct nodes know gstring" formulation
    allows) satisfy the protocol's assumptions with a comfortable margin at
    the laptop-scale ``n`` used in the experiments.  The asymptotic bound
    ``t < (1/3 − ε)n`` with knowledge barely above ``n/2`` requires quorums
    of ``c log n`` nodes for a much larger constant ``c`` than is practical
    at small ``n``; the stress benchmarks sweep these margins explicitly and
    EXPERIMENTS.md discusses the constants.
    """

    name = "aer"
    description = "AER almost-everywhere-to-everywhere agreement (the paper's Section 3)"
    modes = ("sync", "async")
    supports_trace = True
    supports_backends = ("message", "vectorized")
    supports_faults = True
    knobs = (
        "adversary", "mode", "rushing", "t",
        "knowledge_fraction", "wrong_candidate_mode", "quorum_multiplier",
    )
    params = {
        "scenario": "synthetic",
        "delay_policy": None,
        "delay_params": {},
        "max_rounds": 64,
        "answer_budget": None,
        "vec_memory_mb": None,
    }

    def validate(self, spec) -> None:
        super().validate(spec)
        p = self.resolve_params(spec)
        _validate_scenario(spec, p)
        if spec.mode == "sync" and p["delay_policy"]:
            raise ValueError(
                "delay_policy only applies to mode='async' (sync rounds have no delays)"
            )
        if spec.backend == "vectorized":
            if spec.adversary not in VEC_ADVERSARIES:
                raise ValueError(
                    f"backend='vectorized' does not support adversary "
                    f"{spec.adversary!r} (supported: {', '.join(VEC_ADVERSARIES)}); "
                    "use backend='message'"
                )
        elif p["vec_memory_mb"] is not None:
            raise ValueError(
                "vec_memory_mb only applies to backend='vectorized' (the "
                "message kernel has no chunked working set to budget)"
            )

    def run(self, spec) -> RunResult:
        # Looked up on repro.runner at call time (not imported at module
        # level) so wrappers installed on that module are seen.
        from repro.faults import injector_for_spec
        from repro.runner import make_adversary, run_aer
        from repro.trace.collector import collector_for_spec

        p = self.resolve_params(spec)
        config, scenario = _config_and_scenario(spec, p)
        if p["answer_budget"] is not None:
            # The Algorithm 3 budget ablation knob; scenario and samplers are
            # unaffected (neither depends on the budget).
            config = config.with_(answer_budget=int(p["answer_budget"]))  # type: ignore[call-overload]
        if spec.backend == "vectorized":
            # validate() already pinned sync mode, no rushing, no trace and a
            # supported adversary; the vectorized engine resolves the
            # adversary by name and replays its RNG stream itself.
            vec_memory_mb = p["vec_memory_mb"]
            result = run_aer(
                scenario,
                config=config,
                adversary_name=spec.adversary,
                seed=spec.seed,
                max_rounds=int(p["max_rounds"]),  # type: ignore[call-overload]
                backend="vectorized",
                vec_memory_mb=(
                    float(vec_memory_mb) if vec_memory_mb is not None else None  # type: ignore[arg-type]
                ),
            )
            return RunResult.from_simulation(
                self.name, result, _gstring_extras(result, scenario)
            )
        samplers = config.shared_samplers()
        adversary = make_adversary(spec.adversary, scenario, config, samplers)
        trace = collector_for_spec(spec)
        if trace is not None:
            trace.mark_string("gstring", scenario.gstring)
        faults = injector_for_spec(spec)
        result = run_aer(
            scenario,
            config=config,
            adversary=adversary,
            mode=spec.mode,
            rushing=spec.rushing,
            seed=spec.seed,
            max_rounds=int(p["max_rounds"]),  # type: ignore[call-overload]
            delay_policy=_resolve_delay_policy(p),
            samplers=samplers,
            trace=trace,
            faults=faults,
        )
        extras = _gstring_extras(result, scenario)
        if faults is not None:
            extras.update(faults.extras())
        if trace is not None:
            # Adversary-side counters (e.g. the quorum-flood attack's forced
            # strings, the Lemma 4 comparison column) ride along when traced.
            forced = getattr(adversary, "total_forced", None)
            if forced is not None:
                extras["strings_forced"] = int(forced)
        return _traced(RunResult.from_simulation(self.name, result, extras), trace)


@register_protocol
class FullBAAdapter(ProtocolAdapter):
    """The headline composition: ae-substrate + AER (Figure 1b, column "BA")."""

    name = "full_ba"
    description = "full Byzantine Agreement: committee-tree ae-stage composed with AER"
    modes = ("sync", "async")
    supports_trace = True
    knobs = ("adversary", "mode", "rushing", "t", "quorum_multiplier")
    params = {"ae_committee_multiplier": 2.0, "max_rounds": 64}

    def run(self, spec) -> RunResult:
        from repro.core.ba import BAConfig, BAProtocol
        from repro.runner import make_adversary
        from repro.trace.collector import collector_for_spec

        p = self.resolve_params(spec)
        config = BAConfig(
            n=spec.n,
            t=spec.t,
            seed=spec.seed,
            aer_mode=spec.mode,
            rushing=spec.rushing,
            quorum_multiplier=float(spec.quorum_multiplier),
            ae_committee_multiplier=float(p["ae_committee_multiplier"]),  # type: ignore[arg-type]
            max_rounds=int(p["max_rounds"]),  # type: ignore[call-overload]
        )
        trace = collector_for_spec(spec)
        result = BAProtocol(
            config,
            aer_adversary_factory=partial(make_adversary, spec.adversary),
            trace=trace,
        ).run()
        extras = {**_ae_extras(result), "aer_rounds": result.everywhere_result.rounds}
        return _composition(self.name, result, extras, trace)


@register_protocol
class ComposedBAAdapter(ProtocolAdapter):
    """ae-substrate + a baseline everywhere stage (the Figure 1b comparison columns)."""

    name = "composed_ba"
    description = (
        "BA composed from the ae-stage and a baseline everywhere stage "
        "(strategy: sample_majority | naive)"
    )
    modes = ("sync",)
    supports_trace = True
    knobs = ("t",)
    params = {"strategy": "sample_majority", "max_rounds": 64}

    def run(self, spec) -> RunResult:
        from repro.baselines.composed_ba import run_composed_ba
        from repro.trace.collector import collector_for_spec

        p = self.resolve_params(spec)
        trace = collector_for_spec(spec)
        result = run_composed_ba(
            spec.n,
            strategy=str(p["strategy"]),
            t=spec.t,
            seed=spec.seed,
            max_rounds=int(p["max_rounds"]),  # type: ignore[call-overload]
            trace=trace,
        )
        extras = {"strategy": str(p["strategy"]), **_ae_extras(result)}
        return _composition(self.name, result, extras, trace)


class _ScenarioBaselineAdapter(ProtocolAdapter):
    """Shared machinery of the standalone scenario-driven baselines."""

    modes = ("sync",)
    supports_trace = True
    knobs = ("adversary", "t", "knowledge_fraction", "wrong_candidate_mode")
    params = {"scenario": "synthetic", "max_rounds": 16}

    def validate(self, spec) -> None:
        super().validate(spec)
        _validate_scenario(spec, self.resolve_params(spec))

    @staticmethod
    def _adversary(spec, scenario: AERScenario, aer_config: AERConfig):
        """Resolve the adversary knob against the baseline's scenario.

        The registered strategies are written against AER's message types;
        under a baseline the protocol-specific reactions simply never fire,
        while the generic behaviours (silence, noise floods of push/answer
        messages) attack the baseline's vote counting for real.
        """
        if spec.adversary == "none":
            return None
        from repro.runner import make_adversary

        return make_adversary(
            spec.adversary, scenario, aer_config, aer_config.shared_samplers()
        )


@register_protocol
class SampleMajorityAdapter(_ScenarioBaselineAdapter):
    """KLST11-style sampled-majority baseline (the ``O~(√n)`` row of Figure 1a)."""

    name = "sample_majority"
    description = "load-balanced sampled-majority baseline (KLST11-style, O~(sqrt n))"
    supports_backends = ("message", "vectorized")
    params = {**_ScenarioBaselineAdapter.params, "sample_multiplier": 1.0}

    def validate(self, spec) -> None:
        super().validate(spec)
        if spec.backend == "vectorized":
            if spec.adversary not in VEC_MAJORITY_ADVERSARIES:
                raise ValueError(
                    f"backend='vectorized' does not support adversary "
                    f"{spec.adversary!r} for sample_majority "
                    f"(supported: {', '.join(VEC_MAJORITY_ADVERSARIES)}); "
                    "use backend='message'"
                )

    def run(self, spec) -> RunResult:
        from repro.baselines.sample_majority import (
            SampleMajorityConfig,
            run_sample_majority,
        )
        from repro.trace.collector import collector_for_spec

        p = self.resolve_params(spec)
        aer_config, scenario = _config_and_scenario(spec, p)
        config = SampleMajorityConfig.for_system(
            spec.n,
            string_length=len(scenario.gstring),
            sample_multiplier=float(p["sample_multiplier"]),  # type: ignore[arg-type]
        )
        if spec.backend == "vectorized":
            from repro.vec.majority import run_sample_majority_vectorized

            result = run_sample_majority_vectorized(
                scenario,
                config=config,
                adversary_name=spec.adversary,
                seed=spec.seed,
                max_rounds=int(p["max_rounds"]),  # type: ignore[call-overload]
            )
            return RunResult.from_simulation(
                self.name, result, _gstring_extras(result, scenario)
            )
        trace = collector_for_spec(spec)
        result = run_sample_majority(
            scenario,
            config=config,
            adversary=self._adversary(spec, scenario, aer_config),
            seed=spec.seed,
            max_rounds=int(p["max_rounds"]),  # type: ignore[call-overload]
            trace=trace,
        )
        return _traced(
            RunResult.from_simulation(self.name, result, _gstring_extras(result, scenario)),
            trace,
        )


@register_protocol
class NaiveBroadcastAdapter(_ScenarioBaselineAdapter):
    """All-to-all broadcast baseline (the ``Ω(n²)`` row of Figure 1)."""

    name = "naive_broadcast"
    description = "naive all-to-all broadcast baseline (quadratic total bits)"
    params = {**_ScenarioBaselineAdapter.params, "max_rounds": 8}

    def run(self, spec) -> RunResult:
        from repro.baselines.naive_broadcast import run_naive_broadcast
        from repro.trace.collector import collector_for_spec

        p = self.resolve_params(spec)
        aer_config, scenario = _config_and_scenario(spec, p)
        trace = collector_for_spec(spec)
        result = run_naive_broadcast(
            scenario,
            adversary=self._adversary(spec, scenario, aer_config),
            seed=spec.seed,
            max_rounds=int(p["max_rounds"]),  # type: ignore[call-overload]
            trace=trace,
        )
        return _traced(
            RunResult.from_simulation(self.name, result, _gstring_extras(result, scenario)),
            trace,
        )


@register_protocol
class SamplerBorderAdapter(ProtocolAdapter):
    """Section 4.1 / Property 2 Monte-Carlo as a runnable 'protocol'.

    Not a message-passing protocol: one run evaluates the expansion property
    of the poll-list sampler ``J`` — the random digraph model's border
    failure probability and the worst border ratio an adversary finds on the
    *concrete* keyed-hash sampler (random families and the greedy
    label-shopping attack).  Wrapping the analysis in an adapter puts it on
    the same spec/sweep/record rails as every other experiment, which is
    what lets the ``property2`` report section and its benchmark share one
    row source.

    The traffic columns of the normalized record are all zero;
    ``agreement`` reports whether Property 2 held for untailored (random)
    families, and the measured ratios live in ``extras``.
    """

    name = "sampler_border"
    description = (
        "Property 2 expansion analysis of the poll sampler J "
        "(random digraph model + adversarial search on the concrete sampler)"
    )
    modes = ("sync",)
    knobs = ("quorum_multiplier",)
    params = {
        "family_size": None,       # None → max(2, n / log2 n), the Lemma 2 regime
        "model_trials": 60,        # Monte-Carlo trials on the random digraph model
        "random_trials": 20,       # uniformly random families on the concrete J
        "greedy_trials": 3,        # greedy label-shopping attacks on the concrete J
    }

    def run(self, spec) -> RunResult:
        import math
        import random as random_module

        from repro.core.config import AERConfig
        from repro.samplers.poll_sampler import PollSampler
        from repro.samplers.properties import worst_family_border_ratio
        from repro.samplers.random_graph import estimate_border_probability

        p = self.resolve_params(spec)
        n, seed = spec.n, spec.seed
        config = AERConfig.for_system(
            n, sampler_seed=seed, quorum_multiplier=float(spec.quorum_multiplier)
        )
        sampler = PollSampler(config.sampler_spec())
        family_size = p["family_size"]
        if family_size is None:
            family_size = max(2, int(n / math.log2(n)))
        family_size = int(family_size)  # type: ignore[arg-type]

        model_failures = estimate_border_probability(
            n=n, trials=int(p["model_trials"]), seed=seed  # type: ignore[call-overload]
        )
        # One shared rng, random families first: the exact draw sequence of
        # the original Property 2 benchmark, so its tables reproduce.
        rng = random_module.Random(seed)
        worst_random = worst_family_border_ratio(
            sampler, family_size, trials=int(p["random_trials"]), rng=rng, greedy=False  # type: ignore[call-overload]
        )
        worst_greedy = worst_family_border_ratio(
            sampler, family_size, trials=int(p["greedy_trials"]), rng=rng, greedy=True  # type: ignore[call-overload]
        )

        extras = {
            "family_size": family_size,
            "worst_ratio_random_families": round(worst_random, 4),
            "worst_ratio_greedy_attack": round(worst_greedy, 4),
            "property2_threshold": round(2 / 3, 4),
            "model_trials": int(p["model_trials"]),  # type: ignore[call-overload]
            "model_max_failure_probability": (
                max(model_failures.values()) if model_failures else 0.0
            ),
            "model_failures": {
                str(size): probability
                for size, probability in sorted(model_failures.items())
            },
        }
        return RunResult(
            protocol=self.name,
            n=n,
            agreement=worst_random > 2 / 3,
            decided_count=n,
            correct_count=n,
            rounds=None,
            span=None,
            max_decision_time=None,
            total_messages=0,
            total_bits=0,
            amortized_bits=0.0,
            max_node_bits=0,
            median_node_bits=0.0,
            load_imbalance=0.0,
            extras=extras,
        )
