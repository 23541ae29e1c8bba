"""The protocol-adapter contract and the normalized run result.

The repo implements several protocols with heterogeneous native result types
(:class:`~repro.net.results.SimulationResult` for single-stage runs, the
two-stage :class:`~repro.core.ba.BAResult` for the compositions).  To compare
them in one Figure-1-style table — and to fan any mix of them across sweep
workers with one JSON schema — every protocol is wrapped in a
:class:`ProtocolAdapter` that returns a :class:`RunResult`: one flat record
with the paper's metrics columns (bits, rounds, per-node load, agreement),
regardless of how the underlying protocol reports them.

Adding a protocol is one class::

    from repro.protocols import ProtocolAdapter, RunResult, register_protocol

    @register_protocol
    class MyProtocol(ProtocolAdapter):
        name = "my_protocol"
        knobs = ("t",)
        params = {"fanout": 4}

        def run(self, spec):
            p = self.resolve_params(spec)
            result = ...  # run it with spec.t and p["fanout"]
            return RunResult.from_simulation(self.name, result)

after which ``ExperimentSpec(n=64, protocol="my_protocol")``, the sweep
runner and the ``python -m repro {run,sweep,compare}`` CLI all work with it.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

from repro.backends import check_backend
from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.experiments.plan import ExperimentSpec
    from repro.net.results import SimulationResult

#: the global protocol registry; values are ProtocolAdapter *instances*
PROTOCOLS = Registry("protocol")


def register_protocol(cls):
    """Class decorator: instantiate the adapter and register it under ``cls.name``."""
    PROTOCOLS.register(cls.name, cls())
    return cls


def get_protocol(name: str) -> "ProtocolAdapter":
    """Return the adapter registered under ``name`` (``ValueError`` if unknown)."""
    return PROTOCOLS.get(name)  # type: ignore[return-value]


def list_protocols() -> list:
    """Sorted names of all registered protocols."""
    return PROTOCOLS.names()


@dataclass(frozen=True)
class RunResult:
    """One protocol run, normalized to the paper's comparison columns.

    Whatever the protocol (single-stage AER, a two-stage BA composition, a
    baseline), the same fields mean the same thing, so records of different
    protocols can share a table, a JSON file and a sweep.

    Attributes
    ----------
    protocol:
        Registry name of the protocol that produced this result.
    agreement:
        Every correct node decided, and on the same value.
    rounds / span:
        Synchronous rounds (summed across stages for compositions) and
        normalized asynchronous completion time (``None`` where inapplicable).
    total_messages / total_bits:
        Totals over *all* traffic, including Byzantine senders.
    amortized_bits:
        :attr:`total_bits` divided by ``n`` — the paper's amortized
        communication complexity (every sender's bits: the collector's
        totals are never restricted to correct nodes).
    max_node_bits / median_node_bits / load_imbalance:
        Per-node load distribution over correct nodes (stage-summed node-wise
        for compositions), behind Figure 1a's "Load-Balanced" row.
    extras:
        Protocol-specific scalars (e.g. ``knowledge_after_ae`` for the
        compositions); JSON-safe.
    trace:
        Optional condensed :class:`~repro.trace.collector.TraceSummary` as a
        plain JSON dict — present only when the spec asked for
        ``trace="summary"`` / ``"full"``; round-trips through sweep files.
    stopped_by:
        The safety cap that cut the run short (``"max_events"``,
        ``"max_time"`` or ``"max_rounds"``, see
        :attr:`SimulationResult.truncated`); ``None`` — and absent from
        :meth:`to_dict` — for every run that stopped on its own.
    raw:
        The protocol's native result object; excluded from equality and
        serialization.
    """

    protocol: str
    n: int
    agreement: bool
    decided_count: int
    correct_count: int
    rounds: Optional[float]
    span: Optional[float]
    max_decision_time: Optional[float]
    total_messages: int
    total_bits: int
    amortized_bits: float
    max_node_bits: int
    median_node_bits: float
    load_imbalance: float
    extras: Dict[str, object] = field(default_factory=dict)
    trace: Optional[Dict[str, object]] = None
    stopped_by: Optional[str] = None
    raw: object = field(default=None, compare=False, repr=False)

    # -- aliases kept for parity with SimulationResult consumers ------------
    @property
    def agreement_reached(self) -> bool:
        """Alias of :attr:`agreement` (the SimulationResult spelling)."""
        return self.agreement

    @property
    def decided_fraction(self) -> float:
        """Fraction of correct nodes that decided."""
        if not self.correct_count:
            return 0.0
        return self.decided_count / self.correct_count

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict of this class's fields, in field order.

        :attr:`raw` is never read, :attr:`stopped_by` appears only if a cap
        fired, and ``extras`` and ``trace`` are copies, so mutating the dict
        never reaches the result.  A subclass adds its own fields.
        """
        data = {name: getattr(self, name) for name in _SCALAR_FIELDS}
        data["extras"] = deepcopy(self.extras)
        data["trace"] = deepcopy(self.trace)
        if self.stopped_by is not None:
            data["stopped_by"] = self.stopped_by
        return data

    def with_trace(self, trace: Optional[Dict[str, object]]) -> "RunResult":
        """Copy of this result carrying the given condensed trace block."""
        return replace(self, trace=trace)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunResult":
        """Rebuild from :meth:`to_dict` output, ignoring keys that are not fields."""
        known = _field_names(cls)
        return cls(**{k: v for k, v in data.items() if k in known})  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # builders from the native result types
    # ------------------------------------------------------------------
    @staticmethod
    def from_simulation(
        protocol: str,
        result: SimulationResult,
        extras: Optional[Dict[str, object]] = None,
    ) -> "RunResult":
        """Normalize a single-stage :class:`SimulationResult`."""
        metrics = result.metrics
        return RunResult(
            protocol=protocol,
            n=result.n,
            agreement=result.agreement_reached,
            decided_count=len(result.decisions),
            correct_count=len(result.correct_ids),
            rounds=result.rounds,
            span=result.span,
            max_decision_time=metrics.max_decision_time,
            total_messages=result.metrics_all.total_messages,
            total_bits=result.metrics_all.total_bits,
            amortized_bits=metrics.amortized_bits,
            max_node_bits=metrics.max_node_bits,
            median_node_bits=metrics.median_node_bits,
            load_imbalance=metrics.load_imbalance,
            extras=dict(extras or {}),
            stopped_by=result.truncated,
            raw=result,
        )

    @staticmethod
    def from_stages(
        protocol: str,
        stages: Tuple[SimulationResult, ...],
        raw: object = None,
        extras: Optional[Dict[str, object]] = None,
    ) -> "RunResult":
        """Normalize a multi-stage composition (e.g. ae-stage + everywhere-stage).

        Totals are summed across stages; per-node loads are added node-wise
        (both stages run on the same identities) and handed to
        :meth:`MetricsSummary.from_loads
        <repro.net.metrics.MetricsSummary.from_loads>` for the max, median
        and imbalance; agreement and decisions are those of the *final*
        stage, and ``stopped_by`` names the first stage cap that fired.
        """
        from repro.net.metrics import MetricsSummary  # loaded with the engine that ran the stages

        if not stages:
            raise ValueError("a composed run needs at least one stage")
        final = stages[-1]
        rounds = 0.0
        for stage in stages:
            rounds += (
                stage.rounds
                if stage.rounds is not None
                else (stage.span if stage.span is not None else 0.0)
            )
        combined: Dict[int, int] = {}
        for stage in stages:
            for node_id, bits in stage.metrics.per_node_bits.items():
                combined[node_id] = combined.get(node_id, 0) + bits
        loads = MetricsSummary.from_loads(
            n=final.n,
            total_messages=sum(s.metrics_all.total_messages for s in stages),
            total_bits=sum(s.metrics_all.total_bits for s in stages),
            per_node_bits=combined,
            decision_times=final.metrics.decision_times,
            rounds=None,
            span=final.span,
        )
        return RunResult(
            protocol=protocol,
            n=final.n,
            agreement=final.agreement_reached,
            decided_count=len(final.decisions),
            correct_count=len(final.correct_ids),
            rounds=rounds,
            span=final.span,
            max_decision_time=loads.max_decision_time,
            total_messages=loads.total_messages,
            total_bits=loads.total_bits,
            amortized_bits=loads.amortized_bits,
            max_node_bits=loads.max_node_bits,
            median_node_bits=float(loads.median_node_bits),
            load_imbalance=loads.load_imbalance,
            extras=dict(extras or {}),
            stopped_by=next((s.truncated for s in stages if s.truncated), None),
            raw=raw,
        )


#: the fields :meth:`RunResult.to_dict` copies as they are, in field order
_SCALAR_FIELDS = tuple(
    f.name for f in fields(RunResult)
    if f.name not in ("extras", "trace", "stopped_by", "raw")
)


@lru_cache(maxsize=None)
def _field_names(cls) -> frozenset:
    """The field names of the dataclass ``cls``, computed once per class."""
    return frozenset(f.name for f in fields(cls))


class ProtocolAdapter:
    """Contract every runnable protocol implements.

    Class attributes declare the adapter's public surface:

    ``name``
        Registry name (also the ``--protocol`` CLI value).
    ``description``
        One-line summary shown by the CLI.
    ``knobs``
        The :attr:`ExperimentSpec.KNOBS <repro.experiments.plan.ExperimentSpec.KNOBS>`
        fields the adapter takes (``adversary``, ``mode``, ``t``, ...); ``run``
        reads them off the spec.  A knob not named here must stay at its
        spec default.
    ``params``
        Protocol extras (``scenario``, ``max_rounds``, ...) mapped to their
        defaults; a spec sets them in its ``params`` dict.  A key not declared
        here, a knob name included, is rejected by :meth:`validate`.
    ``modes``
        Scheduler modes the protocol supports (``"sync"`` and/or ``"async"``).
    ``supports_trace``
        Whether the adapter honours the spec-level ``trace`` knob (builds a
        :class:`~repro.trace.collector.TraceCollector` and attaches the
        resulting summary to ``RunResult.trace``).  Adapters that do not are
        rejected by :meth:`validate` for ``trace != "off"`` rather than
        silently returning untraced results.
    ``supports_backends``
        Engine backends the adapter can dispatch to.  Every adapter supports
        ``"message"`` (the per-message oracle kernel); adapters with a
        vectorized whole-round implementation (see :mod:`repro.vec`) add
        ``"vectorized"``.  Specs naming an unsupported backend — or
        combining ``backend="vectorized"`` with async mode, rushing or
        tracing, none of which the vectorized engines implement — are
        rejected by :meth:`validate` rather than silently falling back.
    ``supports_faults``
        Whether the adapter honours the spec-level ``faults`` knob (builds a
        :class:`~repro.faults.FaultInjector` and threads it through the
        scheduler).  Adapters that do not are rejected by :meth:`validate`
        for a non-empty schedule rather than silently running fault-free.
    """

    name: str = ""
    description: str = ""
    knobs: Tuple[str, ...] = ()
    params: Mapping[str, object] = {}
    modes: Tuple[str, ...] = ("sync",)
    supports_trace: bool = False
    supports_backends: Tuple[str, ...] = ("message",)
    supports_faults: bool = False

    # ------------------------------------------------------------------
    # validation and parameter resolution
    # ------------------------------------------------------------------
    def validate(self, spec: "ExperimentSpec") -> None:
        """Reject specs that set parameters this protocol does not understand.

        A knob field left at its spec default is always fine (that is what
        lets one plan mix protocols with different parameter spaces); a
        *non-default* knob must be one of :attr:`knobs`, and every ``params``
        entry must be declared in :attr:`params`.
        """
        if spec.mode not in self.modes:
            raise ValueError(
                f"protocol {self.name!r} does not support mode {spec.mode!r} "
                f"(supported: {', '.join(self.modes)})"
            )
        if spec.trace != "off" and not self.supports_trace:
            raise ValueError(
                f"protocol {self.name!r} does not support tracing "
                f"(got trace={spec.trace!r}; only trace='off' is accepted)"
            )
        if spec.backend not in self.supports_backends:
            raise ValueError(
                f"protocol {self.name!r} does not support backend "
                f"{spec.backend!r} (supported: {', '.join(self.supports_backends)})"
            )
        if spec.faults != "{}" and not self.supports_faults:
            raise ValueError(
                f"protocol {self.name!r} does not support fault injection "
                f"(got faults={spec.faults}; only an empty schedule is accepted)"
            )
        params = spec.params_dict()
        for key in params:
            if key in spec.KNOBS:
                raise ValueError(
                    f"unknown parameter {key!r} for protocol {self.name!r}: "
                    f"{key!r} is a spec field; set ExperimentSpec.{key} "
                    f"(CLI --{key.replace('_', '-')}) instead of params"
                )
            if key not in self.params:
                raise ValueError(
                    f"unknown parameter {key!r} for protocol {self.name!r} "
                    f"(accepted: {', '.join(sorted(self.params)) or 'none'})"
                )
        check_backend(
            spec.backend, mode=spec.mode, rushing=spec.rushing,
            traced=spec.trace != "off", faulted=spec.faults != "{}",
            vec_memory_mb=params.get("vec_memory_mb"),  # declared by vectorized adapters
        )
        for knob in spec.changed_knobs():
            if knob not in self.knobs:
                raise ValueError(
                    f"protocol {self.name!r} does not accept knob {knob!r} "
                    f"(accepted: {', '.join(sorted(self.knobs)) or 'none'})"
                )
        if "t" in self.knobs and not 0 <= spec.byzantine_count < spec.n:
            raise ValueError(
                f"t must satisfy 0 <= t < n: at least one node stays "
                f"correct (got t={spec.byzantine_count} with n={spec.n})"
            )

    def relax_spec(self, spec: "ExperimentSpec") -> "ExperimentSpec":
        """Drop whatever this protocol does not accept back to the defaults.

        The cross-protocol ``compare`` flow shares one set of knobs (e.g.
        ``adversary="silent"``) across a protocol mix; protocols that do not
        take a given knob or param should run with their defaults rather
        than abort the whole comparison.  Plain ``sweep``/``run`` keep the
        strict :meth:`validate` behaviour.  A knob spelled as a param is kept,
        so :meth:`validate` still rejects it.
        """
        changes: Dict[str, object] = {
            knob: getattr(type(spec), knob)
            for knob in spec.changed_knobs()
            if knob not in self.knobs
        }
        if spec.trace != "off" and not self.supports_trace:
            changes["trace"] = "off"
        if spec.backend not in self.supports_backends:
            changes["backend"] = "message"
        if spec.faults != "{}" and not self.supports_faults:
            changes["faults"] = "{}"
        kept_params = {
            key: value
            for key, value in spec.params_dict().items()
            if key in self.params or key in spec.KNOBS
        }
        if kept_params != spec.params_dict():
            changes["params"] = kept_params
        return spec.with_(**changes) if changes else spec

    def resolve_params(self, spec: "ExperimentSpec") -> Dict[str, object]:
        """The adapter's extras, overridden by the spec's ``params`` entries."""
        return {**self.params, **spec.params_dict()}

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, spec: "ExperimentSpec") -> RunResult:
        """Execute the spec and return the normalized result."""
        raise NotImplementedError
