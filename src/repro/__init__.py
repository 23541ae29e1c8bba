"""repro — reproduction of "Fast Byzantine Agreement" (PODC 2013).

This package implements, from scratch and in pure Python:

* the **AER** almost-everywhere-to-everywhere agreement protocol and the
  composed **BA** Byzantine Agreement protocol of Braud-Santoni, Guerraoui
  and Huc (:mod:`repro.core`);
* the sampler constructions they rely on (:mod:`repro.samplers`);
* a deterministic message-passing simulation substrate with synchronous and
  asynchronous schedulers (:mod:`repro.net`);
* a Byzantine adversary framework with the attacks analysed in the paper
  (:mod:`repro.adversary`);
* an almost-everywhere agreement substrate in the style of [KSSV06]
  (:mod:`repro.ae`);
* baseline protocols for the comparisons of Figure 1 (:mod:`repro.baselines`);
* analysis utilities for the benchmark harness (:mod:`repro.analysis`);
* a registry-based public API surface (:mod:`repro.api`) through which
  protocols, adversaries, delay policies and scenario generators are
  addressed by name — and extended with one decorator.

Quickstart
----------
>>> from repro import api
>>> result = api.run_experiment("aer", n=64, seed=1, adversary="wrong_answer")
>>> result.agreement
True

Below the registry sit the two stage runners — :func:`repro.run_aer` for the
AER stage on a given scenario, :func:`repro.ae.run_ae_stage` for the
almost-everywhere stage — and the native result of a run is on ``result.raw``
(a ``SimulationResult``, or a two-stage :class:`BAResult` for the compositions).

The names above are re-exported lazily (:mod:`repro.lazy`): importing
``repro`` or any subpackage loads no simulation code until one of them — or
a module that needs the engine — is actually used.
"""

from repro.lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repro.core.config": ("AERConfig",),
        "repro.core.aer": ("AERNode",),
        "repro.core.scenario": ("AERScenario", "build_aer_nodes", "make_scenario"),
        "repro.core.ba": ("BAConfig", "BAProtocol", "BAResult"),
        "repro.runner": ("make_adversary", "run_aer"),
    },
)
__all__.append("__version__")
