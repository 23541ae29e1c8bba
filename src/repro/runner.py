"""The AER stage runner.

:func:`run_aer` is the one place AER nodes are handed to a scheduler: given a
scenario (synthesised, or left behind by :func:`repro.ae.protocol.run_ae_stage`),
it builds the correct population, picks the synchronous or asynchronous
simulator — or the vectorized backend — and returns a
:class:`~repro.net.results.SimulationResult`.  :func:`make_adversary` resolves
an adversary strategy by registry name against that scenario.  Everything is
a pure function of the explicit seed; "``n`` → result" is
``ExperimentSpec(n=...).run()``.
"""

from __future__ import annotations

from typing import Optional

# Importing the package registers every built-in strategy with the registry.
import repro.adversary  # noqa: F401
from repro.adversary.base import Adversary, AdversaryKnowledge
from repro.adversary.registry import resolve_adversary
from repro.core.config import AERConfig, SamplerSuite
from repro.core.scenario import AERScenario, build_aer_nodes
from repro.net.asynchronous import AsynchronousSimulator, DelayPolicy
from repro.net.results import SimulationResult
from repro.net.sync import SynchronousSimulator


def make_adversary(
    name: str,
    scenario: AERScenario,
    config: AERConfig,
    samplers: SamplerSuite,
) -> Optional[Adversary]:
    """Instantiate an adversary strategy by registry name (``"none"`` → no adversary)."""
    knowledge = AdversaryKnowledge(config=config, samplers=samplers, scenario=scenario)
    return resolve_adversary(name, scenario.byzantine_ids, knowledge)


def run_aer(
    scenario: AERScenario,
    config: Optional[AERConfig] = None,
    adversary: Optional[Adversary] = None,
    adversary_name: Optional[str] = None,
    mode: str = "sync",
    rushing: bool = False,
    seed: int = 0,
    max_rounds: int = 64,
    delay_policy: Optional[DelayPolicy] = None,
    samplers: Optional[SamplerSuite] = None,
    trace=None,
    backend: str = "message",
    faults=None,
    vec_memory_mb: Optional[float] = None,
) -> SimulationResult:
    """Run AER on a scenario and return the simulation result.

    Parameters
    ----------
    scenario:
        The almost-everywhere input state (see :func:`repro.core.scenario.make_scenario`).
    config:
        Protocol configuration; defaults to :meth:`AERConfig.for_system`.
    adversary / adversary_name:
        Either an already-constructed adversary or the name of a registered
        strategy (``adversary`` wins if both are given).
    mode:
        ``"sync"`` (lock-step rounds) or ``"async"`` (event queue with
        adversarial delays).
    rushing:
        Synchronous mode only: whether the adversary sees the current round's
        correct-node messages before acting.
    trace:
        Optional :class:`~repro.trace.collector.TraceCollector`, threaded
        into the nodes' phase engines and the scheduler; ``None`` (default)
        is the zero-cost disabled path.
    backend:
        ``"message"`` (this per-message kernel, the oracle) or
        ``"vectorized"`` (the whole-round numpy engine of
        :mod:`repro.vec` — sync-only, non-rushing, untraced, adversary
        resolved by name).
    faults:
        Optional :class:`~repro.faults.FaultInjector`, threaded into the
        scheduler; ``None`` (default) is the zero-cost fault-free path.
    vec_memory_mb:
        Vectorized backend only: byte budget (in MB) for the engine's
        temporary working set — gather and table-decode chunk sizes
        scale with it, the result bits never depend on it.  ``None`` uses
        the engine default.
    """
    if config is None:
        config = AERConfig.for_system(scenario.n)
    if backend == "vectorized":
        from repro.vec.engine import run_aer_vectorized

        if faults is not None:
            raise ValueError(
                "backend='vectorized' does not implement fault injection; "
                "use backend='message' for faulted runs"
            )
        if mode != "sync":
            raise ValueError("backend='vectorized' is synchronous only")
        if rushing:
            raise ValueError("backend='vectorized' does not implement rushing")
        if trace is not None:
            raise ValueError("backend='vectorized' does not implement tracing")
        if adversary is not None:
            raise ValueError(
                "backend='vectorized' resolves adversaries by name; pass "
                "adversary_name instead of a constructed adversary"
            )
        return run_aer_vectorized(
            scenario,
            config=config,
            adversary_name=adversary_name or "none",
            seed=seed,
            max_rounds=max_rounds,
            memory_mb=vec_memory_mb,
        )
    if backend != "message":
        raise ValueError(f"unknown backend {backend!r} (expected 'message' or 'vectorized')")
    if vec_memory_mb is not None:
        raise ValueError(
            "vec_memory_mb only applies to backend='vectorized'; the message "
            "kernel has no chunked working set to budget"
        )
    if samplers is None:
        samplers = config.shared_samplers()
    if adversary is None and adversary_name is not None:
        adversary = make_adversary(adversary_name, scenario, config, samplers)

    nodes = build_aer_nodes(scenario, config, samplers=samplers, trace=trace)
    if mode == "sync":
        # In non-eager mode the pull phase only starts at a fixed round, so the
        # scheduler must not mistake the idle rounds before it for quiescence.
        min_rounds = 0 if config.eager_pull else config.pull_start_round + 1
        simulator = SynchronousSimulator(
            nodes=nodes,
            n=scenario.n,
            adversary=adversary,
            seed=seed,
            rushing=rushing,
            max_rounds=max_rounds,
            min_rounds=min_rounds,
            size_model=config.size_model(),
            trace=trace,
            faults=faults,
        )
    elif mode == "async":
        simulator = AsynchronousSimulator(
            nodes=nodes,
            n=scenario.n,
            adversary=adversary,
            seed=seed,
            delay_policy=delay_policy,
            size_model=config.size_model(),
            trace=trace,
            faults=faults,
        )
    else:
        raise ValueError(f"unknown mode {mode!r} (expected 'sync' or 'async')")
    try:
        return simulator.run()
    finally:
        # The per-run memos reference this run's message objects; a cached
        # suite must not keep them alive once the run is over.
        samplers.pull.shared_scratch.clear()
