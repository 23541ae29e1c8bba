"""BA — the composed Byzantine Agreement protocol (Figure 1b, column "BA").

The paper's headline protocol is a two-stage composition:

1. an **almost-everywhere agreement** stage (along the lines of [KSSV06],
   provided by :mod:`repro.ae`) after which most correct nodes share a
   common, mostly random string ``gstring`` at poly-log per-node cost;
2. the **AER** stage (Section 3), which propagates ``gstring`` from almost
   everywhere to everywhere, again at poly-log amortized cost.

:class:`BAProtocol` is exactly that: it draws the corrupt set, calls
:func:`repro.ae.protocol.run_ae_stage`, hands the scenario it leaves to
:func:`repro.runner.run_aer` (synchronously or asynchronously, with an
optional adversary) and returns both stage results as a :class:`BAResult`.
Adding the stages up is :meth:`repro.protocols.base.RunResult.from_stages`'s
job, not this module's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.config import AERConfig
from repro.core.scenario import AERScenario
from repro.net.results import SimulationResult
from repro.net.rng import derive_rng


@dataclass(frozen=True)
class BAConfig:
    """Parameters of the composed protocol.

    ``ae_committee_multiplier`` / ``quorum_multiplier`` feed the sub-protocol
    configurations; ``t`` is the number of corrupted nodes (``⌊n/6⌋`` by
    default — see the note on finite-``n`` constants on
    :class:`repro.protocols.builtin.AERProtocolAdapter` and EXPERIMENTS.md;
    the bound tolerated asymptotically is ``(1/3 − ε)n``).
    """

    n: int
    t: Optional[int] = None
    seed: int = 0
    aer_mode: str = "sync"          #: ``"sync"`` or ``"async"`` for the AER stage
    rushing: bool = False           #: rushing adversary in the synchronous AER stage
    quorum_multiplier: float = 2.0
    ae_committee_multiplier: float = 2.0
    max_rounds: int = 64

    @property
    def byzantine_count(self) -> int:
        """Number of corrupted nodes."""
        return self.t if self.t is not None else self.n // 6


@dataclass(frozen=True)
class BAResult:
    """Outcome of one ae-stage + everywhere-stage composition.

    A plain pair of stage results (the everywhere stage is AER here, a
    baseline in :func:`repro.baselines.composed_ba.run_composed_ba`); the
    combined complexity figures are derived from the two in exactly one
    place, :meth:`repro.protocols.base.RunResult.from_stages`.
    """

    gstring: str
    scenario: AERScenario
    ae_result: SimulationResult
    everywhere_result: SimulationResult

    @property
    def agreement_reached(self) -> bool:
        """Every correct node decided, and on the same value."""
        return self.everywhere_result.agreement_reached

    @property
    def decided_value(self) -> Optional[object]:
        """The common decision (``None`` if agreement failed)."""
        return self.everywhere_result.agreement_value()

    @property
    def knowledge_fraction_after_ae(self) -> float:
        """Fraction of all nodes that were correct and knew ``gstring`` after stage 1."""
        return self.scenario.knowledge_fraction_of_all


class BAProtocol:
    """Orchestrates the two-stage composition.

    Parameters
    ----------
    config:
        The composed-protocol parameters.
    byzantine_ids:
        Explicit corrupt set; drawn uniformly at random when omitted.
    aer_adversary_factory:
        Optional ``f(scenario, aer_config, samplers) -> adversary`` for stage 2.
    trace:
        Optional :class:`~repro.trace.collector.TraceCollector` shared by
        both stages: kernel-level probes fire in stage 1 and stage 2, and
        the AER engine probes in stage 2.
    """

    def __init__(
        self,
        config: BAConfig,
        byzantine_ids=None,
        aer_adversary_factory: Optional[Callable] = None,
        trace=None,
    ) -> None:
        self.config = config
        self.aer_adversary_factory = aer_adversary_factory
        self.trace = trace
        rng = derive_rng(config.seed, "ba", config.n)
        if byzantine_ids is None:
            self.byzantine_ids = frozenset(
                rng.sample(range(config.n), config.byzantine_count)
            )
        else:
            self.byzantine_ids = frozenset(byzantine_ids)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self) -> BAResult:
        """Run both stages and return the composed result."""
        # Imported lazily: repro.ae and repro.runner both import repro.core.
        from repro.ae.protocol import run_ae_stage
        from repro.runner import run_aer

        config = self.config
        aer_config = AERConfig.for_system(
            config.n,
            sampler_seed=config.seed,
            quorum_multiplier=config.quorum_multiplier,
        )
        ae_result, scenario = run_ae_stage(
            config.n,
            self.byzantine_ids,
            aer_config.string_length,
            seed=config.seed,
            size_model=aer_config.size_model(),
            committee_multiplier=config.ae_committee_multiplier,
            max_rounds=config.max_rounds,
            trace=self.trace,
        )

        samplers = aer_config.shared_samplers()
        if self.trace is not None:
            self.trace.stage_boundary()
            self.trace.mark_string("gstring", scenario.gstring)
        adversary = None
        if self.aer_adversary_factory is not None:
            adversary = self.aer_adversary_factory(scenario, aer_config, samplers)
        aer_result = run_aer(
            scenario,
            config=aer_config,
            adversary=adversary,
            mode=config.aer_mode,
            rushing=config.rushing,
            seed=config.seed + 1,
            max_rounds=config.max_rounds,
            samplers=samplers,
            trace=self.trace,
        )
        return BAResult(
            gstring=scenario.gstring,
            scenario=scenario,
            ae_result=ae_result,
            everywhere_result=aer_result,
        )
