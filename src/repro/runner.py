"""High-level experiment runners.

The examples, tests and benchmarks all drive the system through this module:
build a scenario, pick an adversary by name, run AER under the synchronous or
asynchronous scheduler, get a :class:`~repro.net.results.SimulationResult`
back.  Everything is a pure function of the explicit seed.
"""

from __future__ import annotations

from typing import Optional

# Importing the package registers every built-in strategy with the registry.
import repro.adversary  # noqa: F401
from repro.adversary.base import Adversary, AdversaryKnowledge
from repro.adversary.registry import resolve_adversary
from repro.core.config import AERConfig, SamplerSuite
from repro.core.scenario import AERScenario, build_aer_nodes, make_scenario
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
        temporary working set — chunk sizes and the unpacked-table cache
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
    return simulator.run()


def run_aer_experiment(
    n: int,
    adversary_name: str = "none",
    mode: str = "sync",
    rushing: bool = False,
    seed: int = 0,
    t: Optional[int] = None,
    knowledge_fraction: float = 0.78,
    wrong_candidate_mode: str = "random",
    quorum_multiplier: float = 2.0,
    delay_policy: Optional[DelayPolicy] = None,
    max_rounds: int = 64,
    backend: str = "message",
    faults=None,
    vec_memory_mb: Optional[float] = None,
) -> SimulationResult:
    """One-call experiment: synthesise a scenario, pick an adversary, run AER.

    This is the entry point the benchmarks sweep over ``n``; every choice is
    derived deterministically from ``seed``.

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
    if t is None:
        t = max(1, n // 6)
    config = AERConfig.for_system(n, sampler_seed=seed, quorum_multiplier=quorum_multiplier)
    scenario = make_scenario(
        n,
        config=config,
        t=t,
        knowledge_fraction=knowledge_fraction,
        wrong_candidate_mode=wrong_candidate_mode,
        seed=seed,
    )
    if backend == "vectorized":
        return run_aer(
            scenario,
            config=config,
            adversary_name=adversary_name,
            mode=mode,
            rushing=rushing,
            seed=seed,
            max_rounds=max_rounds,
            backend=backend,
            faults=faults,
            vec_memory_mb=vec_memory_mb,
        )
    if vec_memory_mb is not None:
        raise ValueError(
            "vec_memory_mb only applies to backend='vectorized'; the message "
            "kernel has no chunked working set to budget"
        )
    samplers = config.shared_samplers()
    adversary = make_adversary(adversary_name, scenario, config, samplers)
    return run_aer(
        scenario,
        config=config,
        adversary=adversary,
        mode=mode,
        rushing=rushing,
        seed=seed,
        max_rounds=max_rounds,
        delay_policy=delay_policy,
        samplers=samplers,
        backend=backend,
        faults=faults,
    )
