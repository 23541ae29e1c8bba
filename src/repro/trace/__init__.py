"""Trace subsystem: typed probes in the kernel and engines, condensed per run.

The sixth registry-backed subsystem of the architecture (see ARCHITECTURE.md):
protocol engines and the event kernel emit *typed probe events*
(``phase_started``, ``push_sent``, ``candidate_added``, ``poll_answered``,
``budget_exhausted``, ...); a :class:`TraceCollector` attached to the
:class:`~repro.net.kernel.EventKernel` aggregates them with the same batched,
no-per-message-object discipline as the metrics collector, and condenses them
into a JSON-friendly :class:`TraceSummary` that rides along on
``RunResult.trace`` / ``ExperimentRecord.trace`` through sweep files and into
the report sections for Lemmas 3-5 and the ablations.

Tracing is opt-in per experiment spec (``trace="off" | "summary" | "full"``,
default ``"off"``) and the disabled path is guaranteed free: no collector is
constructed, every probe site is a ``None`` check, and the golden-seed
equivalence tests pin byte-identical results.

The re-exports are lazy (:mod:`repro.lazy`): validating a spec's ``trace``
knob reads :data:`TRACE_MODES` from the probe table without loading the
collector.
"""

from repro.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repro.trace.collector": ("TraceCollector", "TraceSummary", "collector_for_spec"),
        "repro.trace.probes": (
            "TRACE_MODES", "PROBE_POINTS", "ProbePoint", "get_probe", "register_probe",
        ),
    },
)
