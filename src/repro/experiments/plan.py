"""Experiment specifications and grid plans.

An :class:`ExperimentSpec` pins *everything* a run depends on — the protocol,
its parameters, the scenario knobs and the scheduler — so a spec is a pure
function from itself to a normalized
:class:`~repro.protocols.base.RunResult`.  Specs are frozen dataclasses:
picklable (for multiprocessing workers) and JSON-round-trippable (for
persisted sweep results).

The ``protocol`` field names an adapter in the protocol registry
(:mod:`repro.protocols`); the knob fields (``adversary``, ``mode``,
``rushing``, ``t``, ...) are validated against the adapter's ``knobs`` and
the free-form ``params`` dict against its ``params``, so a typo'd or
unsupported parameter fails loudly before any worker is spawned.  A knob has
one spelling, its field: a knob name in ``params`` is rejected.

An :class:`ExperimentPlan` is the cartesian grid the sweep subsystem runs:
``ns × protocols × adversaries × modes × seeds`` with shared scenario knobs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from functools import lru_cache
from typing import TYPE_CHECKING, ClassVar, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.backends import check_backend
from repro.core import WRONG_CANDIDATE_MODES
from repro.faults import FaultSchedule
from repro.trace.probes import TRACE_MODES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocols.base import RunResult


def _canonical_params(value) -> str:
    """Normalize a params mapping to canonical JSON text.

    Specs are frozen, hashable and compared by value, so the params field is
    stored as one canonical string (sorted keys, no whitespace): two specs
    describing the same run compare equal no matter how their params were
    spelled, and every value round-trips through sweep JSON exactly as given
    (lists stay lists, dicts stay dicts).
    """
    if isinstance(value, str):
        parsed = json.loads(value)
        if not isinstance(parsed, dict):
            raise ValueError(f"params must be a mapping, got {parsed!r}")
    elif isinstance(value, Mapping):
        parsed = dict(value)
    else:
        parsed = dict(value)  # accept ``(("key", value), ...)`` pair sequences
    try:
        return json.dumps(parsed, sort_keys=True, separators=(",", ":"))
    except TypeError as exc:
        raise ValueError(
            f"protocol params must be JSON-serializable (specs round-trip "
            f"through sweep files): {exc}"
        ) from None


def _canonical_faults(value) -> str:
    """Normalize a fault-schedule spelling to canonical JSON text.

    Accepts a :class:`~repro.faults.FaultSchedule`, a mapping of knobs or
    JSON text; the canonical form is the schedule's defaults-omitted JSON,
    so two spellings of the same schedule — ``{}`` and an explicit
    ``{"loss_rate": 0.0}`` — compare equal and share one ``spec_key``.
    Unknown keys and out-of-range values are rejected here (by name), at
    spec construction time.  The default, as text or as an empty mapping
    (what ``to_dict`` gives), is returned without parsing.
    """
    if value == "{}" or value == {}:
        return "{}"
    if isinstance(value, FaultSchedule):
        return value.to_json()
    if isinstance(value, str):
        return FaultSchedule.from_json(value).to_json()
    return FaultSchedule.from_dict(value).to_json()


@lru_cache(maxsize=None)
def _field_names(cls) -> FrozenSet[str]:
    """The field names of the dataclass ``cls``, computed once per class."""
    return frozenset(f.name for f in fields(cls))


def _known_fields(cls, data: Mapping[str, object], what: str) -> Dict[str, object]:
    """``data`` as a dict, rejecting (by name) keys that are not fields of ``cls``."""
    known = _field_names(cls)
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"unknown experiment {what} key(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})"
        )
    return dict(data)


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully described experiment run of any registered protocol.

    The knob fields (:attr:`KNOBS`, ``adversary`` ... ``quorum_multiplier``)
    are shared by several protocols, each adapter naming the ones it takes;
    their defaults here are the only ones.  ``params`` carries
    protocol-specific extras (e.g. ``{"strategy": "naive"}`` for
    ``composed_ba``).  ``label`` is a free-form tag carried through to
    records (useful to mark series in a benchmark table).
    """

    #: the fields an adapter may take as knobs (``ProtocolAdapter.knobs``)
    KNOBS: ClassVar[Tuple[str, ...]] = (
        "adversary", "mode", "rushing", "t",
        "knowledge_fraction", "wrong_candidate_mode", "quorum_multiplier",
    )

    n: int
    protocol: str = "aer"
    adversary: str = "none"
    mode: str = "sync"
    rushing: bool = False
    seed: int = 0
    t: Optional[int] = None
    knowledge_fraction: float = 0.78
    wrong_candidate_mode: str = "random"
    quorum_multiplier: float = 2.0
    label: str = ""
    #: instrumentation level: "off" (default, guaranteed-free), "summary"
    #: (condensed TraceSummary on the record) or "full" (adds per-event JSONL)
    trace: str = "off"
    #: protocol-specific extras as canonical JSON text (construct with a plain
    #: dict — ``params={"strategy": "naive"}`` — and read via params_dict())
    params: str = "{}"
    #: engine backend: "message" (per-message oracle kernel, the default) or
    #: "vectorized" (whole-round numpy engine for large n; sync-only, no
    #: trace, subset of adversaries — see repro.vec)
    backend: str = "message"
    #: fault schedule as canonical JSON text (construct with a plain dict —
    #: ``faults={"loss_rate": 0.1}`` — and read via faults_schedule());
    #: ``"{}"`` is the default no-op: no injector is built and the run is
    #: byte-identical to one without the fault subsystem
    faults: str = "{}"

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _canonical_params(self.params))
        object.__setattr__(self, "faults", _canonical_faults(self.faults))

    @property
    def key(self) -> str:
        """Compact unique-ish identifier used in logs and result files.

        AER keys keep their historical (protocol-less) format so recorded
        benchmark baselines remain addressable across PRs; non-default
        backends are marked with a ``:vec`` suffix so both backends of one
        spec can coexist in a result file.
        """
        rushing = "-rushing" if self.rushing else ""
        base = f"{self.mode}{rushing}:{self.adversary}:n{self.n}:s{self.seed}"
        if self.backend != "message":
            base = f"{base}:vec"
        if self.faults != "{}":
            base = f"{base}:flt"
        if self.protocol == "aer":
            return base
        return f"{self.protocol}:{base}"

    @property
    def byzantine_count(self) -> int:
        """``t``, or ``max(1, ⌊n/6⌋)`` if unset: the one ``t`` rule, which every adapter passes down."""
        return self.t if self.t is not None else max(1, self.n // 6)

    def changed_knobs(self) -> Tuple[str, ...]:
        """The knob fields that differ from their defaults."""
        return tuple(
            knob for knob in self.KNOBS if getattr(self, knob) != getattr(ExperimentSpec, knob)
        )

    def params_dict(self) -> Dict[str, object]:
        """The protocol-specific extras as a plain dict."""
        return json.loads(self.params)

    def faults_dict(self) -> Dict[str, object]:
        """The fault schedule's non-default knobs as a plain dict."""
        return json.loads(self.faults)

    def faults_schedule(self) -> FaultSchedule:
        """The parsed :class:`~repro.faults.FaultSchedule` (no-op by default)."""
        return FaultSchedule.from_json(self.faults)

    def validate(self) -> None:
        """Raise ``ValueError`` if this spec cannot be run as described."""
        from repro.protocols import get_protocol

        check_backend(self.backend, mode=self.mode)
        if self.rushing and self.mode == "async":
            raise ValueError(
                "rushing=True is only meaningful under mode='sync'; the "
                "asynchronous adversary is inherently rushing"
            )
        if self.trace not in TRACE_MODES:
            raise ValueError(
                f"unknown trace mode {self.trace!r} "
                f"(expected {', '.join(repr(m) for m in TRACE_MODES)})"
            )
        if self.wrong_candidate_mode not in WRONG_CANDIDATE_MODES:
            raise ValueError(
                f"unknown wrong_candidate_mode {self.wrong_candidate_mode!r} "
                f"(expected {', '.join(repr(m) for m in WRONG_CANDIDATE_MODES)})"
            )
        if not 0.0 <= self.knowledge_fraction <= 1.0:
            raise ValueError(f"knowledge_fraction must lie in [0, 1], got {self.knowledge_fraction!r}")
        if not self.quorum_multiplier > 0:
            raise ValueError(f"quorum_multiplier must be positive, got {self.quorum_multiplier!r}")
        # Knob names/ranges were checked at construction; the mode-dependent
        # constraints (delay classes are async-only) can only be checked here.
        if self.faults != "{}":
            self.faults_schedule().validate_for_mode(self.mode)
        get_protocol(self.protocol).validate(self)

    def run(self) -> "RunResult":
        """Validate and execute this spec; return the normalized run result."""
        from repro.protocols import get_protocol

        self.validate()
        return get_protocol(self.protocol).run(self)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict in field order, ``params`` and ``faults`` parsed."""
        data = {name: getattr(self, name) for name in _SPEC_FIELDS}
        data["params"] = self.params_dict()
        data["faults"] = self.faults_dict()
        return data

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "ExperimentSpec":
        return ExperimentSpec(**_known_fields(ExperimentSpec, data, "spec"))  # type: ignore[arg-type]

    def with_(self, **changes) -> "ExperimentSpec":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


#: every field of :class:`ExperimentSpec`, in order (all of them scalars)
_SPEC_FIELDS = tuple(f.name for f in fields(ExperimentSpec))


@dataclass(frozen=True)
class ExperimentPlan:
    """A grid of experiment specs: ``ns × protocols × adversaries × modes × seeds``.

    Expansion order is deterministic (n-major, then protocol, adversary,
    mode, seed), so record lists line up across runs of the same plan.
    ``params`` is shared by every generated spec (protocol-specific extras).
    ``rushing`` applies to the grid's sync-mode specs only — a mixed
    ``modes=("sync", "async")`` grid stays runnable because the asynchronous
    adversary is inherently rushing anyway.
    """

    ns: Tuple[int, ...]
    protocols: Tuple[str, ...] = (ExperimentSpec.protocol,)
    adversaries: Tuple[str, ...] = (ExperimentSpec.adversary,)
    modes: Tuple[str, ...] = (ExperimentSpec.mode,)
    seeds: Tuple[int, ...] = (ExperimentSpec.seed,)
    rushing: bool = ExperimentSpec.rushing
    t: Optional[int] = ExperimentSpec.t
    knowledge_fraction: float = ExperimentSpec.knowledge_fraction
    wrong_candidate_mode: str = ExperimentSpec.wrong_candidate_mode
    quorum_multiplier: float = ExperimentSpec.quorum_multiplier
    label: str = ExperimentSpec.label
    #: instrumentation level shared by every generated spec (off|summary|full)
    trace: str = ExperimentSpec.trace
    #: protocol-specific extras shared by every generated spec (canonical
    #: JSON text; construct with a plain dict)
    params: str = ExperimentSpec.params
    #: engine backend shared by every generated spec (message|vectorized)
    backend: str = ExperimentSpec.backend
    #: fault schedule shared by every generated spec (canonical JSON text;
    #: construct with a plain dict; ``"{}"`` = no injection)
    faults: str = ExperimentSpec.faults
    #: explicit extra specs appended after the grid (escape hatch for
    #: irregular sweeps that still want the runner/persistence machinery)
    extra_specs: Tuple[ExperimentSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # Accept lists/generators for convenience, store tuples (hashability).
        for name in ("ns", "protocols", "adversaries", "modes", "seeds", "extra_specs"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        object.__setattr__(self, "params", _canonical_params(self.params))
        object.__setattr__(self, "faults", _canonical_faults(self.faults))

    def specs(self) -> List[ExperimentSpec]:
        """Expand the grid into the ordered list of specs to run."""
        spec_fields = _field_names(ExperimentSpec)
        shared = {f.name: getattr(self, f.name) for f in fields(self) if f.name in spec_fields}
        grid = [
            ExperimentSpec(
                **{**shared, "rushing": self.rushing and mode == "sync"},
                n=n, protocol=protocol, adversary=adversary, mode=mode, seed=seed,
            )
            for n in self.ns
            for protocol in self.protocols
            for adversary in self.adversaries
            for mode in self.modes
            for seed in self.seeds
        ]
        grid.extend(self.extra_specs)
        return grid

    def validate(self) -> None:
        """Validate every spec of the grid (cheap; no run is started)."""
        for spec in self.specs():
            spec.validate()

    def relaxed(self) -> "ExperimentPlan":
        """The same specs, each relaxed to the knobs its protocol accepts.

        The cross-protocol ``compare`` plan: shared knobs and params apply
        to the protocols that take them, and the others run with their
        defaults instead of aborting the comparison.  A param that no
        protocol in the plan takes is a typo, not a relaxation: it raises
        ``ValueError``.
        """
        from repro.protocols import get_protocol

        specs = self.specs()
        adapters = {spec.protocol: get_protocol(spec.protocol) for spec in specs}
        declared = {key for adapter in adapters.values() for key in adapter.params}
        # a knob name is left for validate(), which names the knob's own flag
        unknown = {key for spec in specs for key in spec.params_dict()} - declared - set(ExperimentSpec.KNOBS)
        if unknown:
            raise ValueError(
                f"no protocol in the plan takes parameter(s) {', '.join(map(repr, sorted(unknown)))} "
                f"(accepted: {', '.join(sorted(declared)) or 'none'})"
            )
        return ExperimentPlan(ns=(), extra_specs=tuple(adapters[s.protocol].relax_spec(s) for s in specs))

    def __len__(self) -> int:
        return (
            len(self.ns)
            * len(self.protocols)
            * len(self.adversaries)
            * len(self.modes)
            * len(self.seeds)
            + len(self.extra_specs)
        )

    def to_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["params"] = json.loads(self.params)
        data["faults"] = json.loads(self.faults)
        data["extra_specs"] = [spec.to_dict() for spec in self.extra_specs]
        return data

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "ExperimentPlan":
        data = _known_fields(ExperimentPlan, data, "plan")
        data["extra_specs"] = [ExperimentSpec.from_dict(spec) for spec in data.get("extra_specs", ())]
        return ExperimentPlan(**data)  # type: ignore[arg-type]
