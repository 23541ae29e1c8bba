"""repro.api — the one import that exposes the whole registry surface.

Everything a user needs to run, sweep and compare protocols, and to extend
the system with their own protocols, adversaries, delay policies and
scenario generators, re-exported from one place::

    from repro import api

    # one run of any registered protocol
    result = api.run_experiment("composed_ba", n=64, seed=3, strategy="naive")
    print(result.amortized_bits, result.agreement)

    # a cross-protocol Figure-1-style comparison
    sweep, rows = api.compare(
        protocols=("aer", "composed_ba", "naive_broadcast"),
        ns=(32, 64), seeds=(0, 1),
    )
    print(api.format_table(rows, title="Figure 1"))

Extension points (all decorator-based; see ARCHITECTURE.md layer 4):

* :func:`register_protocol` — a new :class:`ProtocolAdapter`;
* :func:`register_adversary` — a new Byzantine strategy;
* :func:`register_delay_policy` — a new asynchronous delay policy;
* :func:`register_scenario` — a new scenario generator;
* :func:`register_report_section` — a new EXPERIMENTS.md section
  (:class:`ReportSection`; rendered by ``python -m repro report``);
* :func:`register_probe` — a new trace probe point
  (:class:`ProbePoint`; emitted through :class:`TraceCollector`).
"""

from __future__ import annotations

from dataclasses import fields as _dataclass_fields
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.adversary.base import Adversary, AdversaryKnowledge
from repro.adversary.registry import ADVERSARIES, register_adversary, resolve_adversary
from repro.analysis.experiments import compare_rows, format_table, run_result_row
from repro.core.scenario import AERScenario, make_scenario
from repro.experiments.plan import ExperimentPlan, ExperimentSpec
from repro.faults import (
    FaultInjector,
    FaultSchedule,
    PartitionWindow,
    injector_for_spec,
)
from repro.dist import (
    DistCoordinator,
    DistExecutor,
    DistributedSweepError,
    active_coordinators,
    run_distributed_sweep,
    run_worker,
)
from repro.experiments.sweep import (
    ExperimentRecord,
    SweepResult,
    SweepRunner,
    WorkerCrashedError,
    WorkerPool,
    execute_spec,
    run_sweep,
)
from repro.net.asynchronous import (
    DELAY_POLICIES,
    DelayPolicy,
    make_delay_policy,
    register_delay_policy,
)
from repro.protocols import (
    PROTOCOLS,
    SCENARIOS,
    ProtocolAdapter,
    RunResult,
    get_protocol,
    list_protocols,
    make_scenario_by_name,
    register_protocol,
    register_scenario,
)
from repro.report import (
    REPORT_SECTIONS,
    ReportBuilder,
    ReportSection,
    build_report,
    get_report_section,
    list_report_sections,
    markdown_table,
    register_report_section,
    render_registries,
)
from repro.service import Job, JobManager, make_server
from repro.store import (
    ResultStore,
    StoreError,
    code_fingerprint,
    default_store_path,
    plan_key,
    spec_key,
)
from repro.trace import (
    PROBE_POINTS,
    ProbePoint,
    TraceCollector,
    TraceSummary,
    collector_for_spec,
    get_probe,
    register_probe,
)

__all__ = [
    # registries and their decorators
    "PROTOCOLS", "register_protocol", "get_protocol", "list_protocols",
    "ADVERSARIES", "register_adversary", "resolve_adversary", "list_adversaries",
    "DELAY_POLICIES", "register_delay_policy", "make_delay_policy", "list_delay_policies",
    "SCENARIOS", "register_scenario", "make_scenario_by_name", "list_scenarios",
    "REPORT_SECTIONS", "register_report_section", "get_report_section", "list_report_sections",
    "PROBE_POINTS", "register_probe", "get_probe",
    # contracts and records
    "ProtocolAdapter", "RunResult", "Adversary", "AdversaryKnowledge",
    "DelayPolicy", "AERScenario", "make_scenario", "ReportSection",
    "ProbePoint", "TraceCollector", "TraceSummary", "collector_for_spec",
    # fault injection
    "FaultSchedule", "FaultInjector", "PartitionWindow", "injector_for_spec",
    # orchestration
    "ExperimentSpec", "ExperimentPlan", "ExperimentRecord",
    "SweepRunner", "SweepResult", "WorkerPool", "run_sweep", "execute_spec",
    "WorkerCrashedError",
    # distributed execution
    "DistCoordinator", "DistExecutor", "DistributedSweepError",
    "run_distributed_sweep",
    "run_worker", "active_coordinators",
    # result store and experiment service
    "ResultStore", "StoreError", "spec_key", "plan_key", "code_fingerprint",
    "default_store_path", "Job", "JobManager", "make_server",
    # conveniences
    "spec_for", "run_experiment", "compare",
    "format_table", "compare_rows", "run_result_row",
    "ReportBuilder", "build_report", "render_registries", "markdown_table",
]

#: spec fields settable directly through ``spec_for`` keyword arguments
_SPEC_FIELDS = {f.name for f in _dataclass_fields(ExperimentSpec)} - {"n", "protocol", "params"}


def list_adversaries() -> List[str]:
    """Sorted names of all registered adversary strategies."""
    return ADVERSARIES.names()


def list_delay_policies() -> List[str]:
    """Sorted names of all registered delay policies."""
    return DELAY_POLICIES.names()


def list_scenarios() -> List[str]:
    """Sorted names of all registered scenario generators."""
    return SCENARIOS.names()


def spec_for(protocol: str, n: int, **params) -> ExperimentSpec:
    """Build a validated spec, routing kwargs to spec fields or protocol params.

    Keyword arguments matching a spec field (``adversary``, ``mode``,
    ``seed``, ``t``, ...) set that field; everything else lands in the
    spec's protocol-specific ``params`` dict — so
    ``spec_for("composed_ba", 64, strategy="naive")`` just works.
    """
    spec_kwargs = {k: params.pop(k) for k in list(params) if k in _SPEC_FIELDS}
    spec = ExperimentSpec(n=n, protocol=protocol, params=params, **spec_kwargs)
    spec.validate()
    return spec


def run_experiment(protocol: str = "aer", *, n: int, **params) -> RunResult:
    """One-call experiment: build a spec for ``protocol`` and run it.

    >>> from repro import api
    >>> api.run_experiment("aer", n=64, seed=1, adversary="wrong_answer").agreement
    True
    """
    return spec_for(protocol, n, **params).run()


def compare(
    protocols: Sequence[str],
    ns: Iterable[int],
    seeds: Iterable[int] = (0,),
    jobs: Optional[int] = None,
    out: Optional[str] = None,
    **shared,
) -> Tuple[SweepResult, List[Dict[str, object]]]:
    """Run every protocol on the same sizes/seeds; return (sweep, table rows).

    ``shared`` accepts the plan's knob fields (``adversary`` →
    ``adversaries=(...,)``, ``t``, ``knowledge_fraction``, ...) plus a
    ``params`` dict applied to every spec.  Shared knobs/params apply to the
    protocols that accept them and relax to defaults for the rest, so one
    call compares a heterogeneous mix.  The returned rows aggregate across
    seeds per ``(n, protocol)`` — the Figure-1-style comparison.
    """
    adversary = shared.pop("adversary", "none")
    plan = ExperimentPlan(
        ns=tuple(ns),
        protocols=tuple(protocols),
        adversaries=(adversary,),
        seeds=tuple(seeds),
        **shared,
    )
    sweep = run_sweep(plan.relaxed(), jobs=jobs, out=out)
    return sweep, compare_rows(sweep.records)
