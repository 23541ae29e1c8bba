"""Named scenario generators: where a protocol's input state comes from.

The almost-everywhere-to-everywhere protocols (AER and the two baselines) all
consume an :class:`~repro.core.scenario.AERScenario`.  The registry makes the
*source* of that scenario a named, pluggable choice:

* ``synthetic`` — :func:`repro.core.scenario.make_scenario`: the corrupt set,
  ``gstring`` and the knowledgeable set are drawn directly from the seed.
  This is the default and what every golden test pins.
* ``from_ae`` — actually run the committee-tree almost-everywhere substrate
  (:mod:`repro.ae`) and convert its outcome, so AER (or a baseline) runs on a
  *realistically generated* almost-everywhere state instead of a synthesized
  one.

A generator is called as ``generator(n, config, seed, **kwargs)`` and must
return an ``AERScenario``; the adapters pass the spec's ``t``
(``ExperimentSpec.byzantine_count``), ``knowledge_fraction`` and
``wrong_candidate_mode`` as keywords.  Register custom ones with
:func:`register_scenario`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import AERConfig
    from repro.core.scenario import AERScenario

#: named scenario-generator registry
SCENARIOS = Registry("scenario generator")


def register_scenario(name: str, *, replace: bool = False):
    """Decorator registering a scenario generator under ``name``."""
    return SCENARIOS.register(name, replace=replace)


def make_scenario_by_name(
    name: str, n: int, config: AERConfig, seed: int, **kwargs
) -> AERScenario:
    """Build a scenario with the generator registered under ``name``."""
    generator = SCENARIOS.get(name)
    return generator(n, config, seed, **kwargs)  # type: ignore[operator]


@register_scenario("synthetic")
def synthetic_scenario(
    n: int, config: AERConfig, seed: int, *, t: int, knowledge_fraction: float, wrong_candidate_mode: str
) -> AERScenario:
    """Draw the almost-everywhere state directly from the seed (the default)."""
    from repro.core.scenario import make_scenario

    return make_scenario(
        n, config, t=t, knowledge_fraction=knowledge_fraction,
        wrong_candidate_mode=wrong_candidate_mode, seed=seed,
    )


@register_scenario("from_ae")
def ae_generated_scenario(
    n: int,
    config: AERConfig,
    seed: int,
    t: int,
    **_ignored,
) -> AERScenario:
    """Run the committee-tree almost-everywhere substrate and convert its outcome.

    The corrupt set is drawn exactly as the composed-BA runs draw it, so a
    protocol run on this scenario is the second stage of a real composition
    rather than a synthetic experiment.  The returned scenario is *not*
    validated: whether the substrate achieved the ``> 1/2`` knowledge
    precondition is itself an experimental outcome.  The substrate decides
    who knows ``gstring`` and what the others hold, so the adapters reject
    a non-default ``knowledge_fraction`` or ``wrong_candidate_mode`` here.
    """
    from repro.ae.protocol import run_ae_stage
    from repro.net.messages import SizeModel
    from repro.net.rng import derive_rng

    rng = derive_rng(seed, "scenario-from-ae", n)
    byzantine_ids = frozenset(rng.sample(range(n), t))
    _, scenario = run_ae_stage(
        n,
        byzantine_ids,
        config.string_length,
        seed=seed,
        size_model=SizeModel(n=n),
    )
    return scenario
