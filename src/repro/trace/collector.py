"""TraceCollector — batched aggregation of probe events, and its summary.

The collector follows the same discipline as
:class:`~repro.net.metrics.MetricsCollector`: flat ``{node: int}`` counter
dicts, no per-message object churn, everything derived lazily in
:meth:`TraceCollector.summary`.  The hot kernel probe
(:meth:`TraceCollector.on_dispatch`) fires once per *grouped multicast
record*, not once per message, so enabling ``summary`` tracing costs a
handful of dict updates per dispatch.

Disabled tracing is **free**: nothing in the engine or kernel code paths
constructs a collector unless a spec asks for one (``trace="summary"`` /
``"full"``); the disabled path is a ``None`` check at the probe sites and
the golden-seed equivalence tests pin that the results are byte-identical.

``full`` mode additionally records every probe event — streamed as JSONL to
``$REPRO_TRACE_DIR/<spec key>.jsonl`` when that directory is configured
(``python -m repro run/sweep --trace full --trace-dir DIR``), and kept in a
bounded in-memory buffer otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.trace.probes import TRACE_MODES, get_probe

#: message kinds accounted to the AER push phase
PUSH_PHASE_KINDS = frozenset({"push"})

#: message kinds accounted to the AER pull phase; kinds in neither set (e.g.
#: the committee-tree AE stage's traffic, the sampled-majority baseline's
#: queries) land in the summary's "other" bucket instead of polluting the
#: push-vs-pull split of a multi-stage composition
PULL_PHASE_KINDS = frozenset({"pull", "poll", "fw1", "fw2", "answer"})

#: default cap on the in-memory event buffer of ``full`` mode (events beyond
#: the cap are counted but not kept; the JSONL stream, when configured, is
#: never truncated)
DEFAULT_MAX_BUFFERED_EVENTS = 100_000


def _stat_block(values: Sequence[float]) -> Dict[str, float]:
    """min/mean/max of a latency-like series (empty → zeros with count 0)."""
    values = list(values)
    if not values:
        return {"count": 0, "min": 0.0, "mean": 0.0, "max": 0.0}
    return {
        "count": len(values),
        "min": min(values),
        "mean": sum(values) / len(values),
        "max": max(values),
    }


@dataclass(frozen=True)
class TraceSummary:
    """JSON-friendly condensation of one traced run.

    Attributes
    ----------
    mode:
        ``"summary"`` or ``"full"``.
    events:
        ``{probe name: total count}`` over every probe that fired.
    message_kinds / byzantine_message_kinds:
        Per message kind ``{"messages": count, "bits": total bits}``, split
        by whether the *sender* was correct or Byzantine.
    phase_bits:
        Correct-sender bits attributed to the AER push phase, the AER pull
        phase, and ``other`` (message kinds belonging to neither — e.g. a
        composition's AE-stage traffic or a baseline's queries).
    push:
        Per-correct-node push-phase send cost: ``max_node_bits`` /
        ``mean_node_bits`` / ``total_bits`` / ``max_node_messages`` — the
        Lemma 3 quantities.
    candidates:
        Candidate-list totals (``total`` = ``Σ|L_x|``, ``max``, ``mean``,
        ``added``) over the registered holders — the Lemma 4 quantities;
        ``None`` for protocols without candidate lists.
    polls:
        Poll/answer accounting: polls started, answers sent, budget events,
        distinct budget-limited nodes, and the poll-latency distribution
        (first poll to decision, in scheduler time units).
    marked:
        Per marked string (see :meth:`TraceCollector.mark_string`):
        ``initial`` holders, ``accepted`` via push majorities, and their sum
        ``holders`` — the Lemma 5 reach numerator.
    full:
        Present in ``full`` mode only: events captured/dropped and the JSONL
        path, if any.
    """

    mode: str
    events: Dict[str, int]
    message_kinds: Dict[str, Dict[str, int]]
    byzantine_message_kinds: Dict[str, Dict[str, int]]
    phase_bits: Dict[str, int]
    push: Dict[str, float]
    candidates: Optional[Dict[str, float]]
    polls: Dict[str, object]
    marked: Dict[str, Dict[str, int]] = field(default_factory=dict)
    full: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (what ``RunResult.trace`` carries through JSON)."""
        data: Dict[str, object] = {
            "mode": self.mode,
            "events": dict(self.events),
            "message_kinds": {k: dict(v) for k, v in self.message_kinds.items()},
            "byzantine_message_kinds": {
                k: dict(v) for k, v in self.byzantine_message_kinds.items()
            },
            "phase_bits": dict(self.phase_bits),
            "push": dict(self.push),
            "candidates": dict(self.candidates) if self.candidates is not None else None,
            "polls": dict(self.polls),
            "marked": {k: dict(v) for k, v in self.marked.items()},
        }
        if self.full is not None:
            data["full"] = dict(self.full)
        return data

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "TraceSummary":
        return TraceSummary(
            mode=str(data["mode"]),
            events=dict(data.get("events", {})),  # type: ignore[arg-type]
            message_kinds=dict(data.get("message_kinds", {})),  # type: ignore[arg-type]
            byzantine_message_kinds=dict(
                data.get("byzantine_message_kinds", {})  # type: ignore[arg-type]
            ),
            phase_bits=dict(data.get("phase_bits", {})),  # type: ignore[arg-type]
            push=dict(data.get("push", {})),  # type: ignore[arg-type]
            candidates=(
                dict(data["candidates"])  # type: ignore[arg-type]
                if data.get("candidates") is not None
                else None
            ),
            polls=dict(data.get("polls", {})),  # type: ignore[arg-type]
            marked=dict(data.get("marked", {})),  # type: ignore[arg-type]
            full=dict(data["full"]) if data.get("full") is not None else None,  # type: ignore[arg-type]
        )


class TraceCollector:
    """Aggregates probe events during one simulation run.

    One collector serves one run (a multi-stage composition shares a single
    collector across its stages).  The kernel binds the population and its
    clock at construction time; engines hold a reference and call the probe
    methods at their event sites — or :meth:`emit` for extension probes,
    which validates the probe name against the registry.
    """

    def __init__(
        self,
        mode: str = "summary",
        jsonl_path: Optional[str] = None,
        max_buffered_events: int = DEFAULT_MAX_BUFFERED_EVENTS,
    ) -> None:
        if mode == "off" or mode not in TRACE_MODES:
            raise ValueError(f"unknown trace mode {mode!r} (expected 'summary' or 'full')")
        self.mode = mode
        self.jsonl_path = jsonl_path
        self.max_buffered_events = max_buffered_events
        self._full = mode == "full"
        self._sink = None
        if self._full and jsonl_path is not None:
            self._sink = open(jsonl_path, "w", encoding="utf-8")

        self._counts: Dict[str, int] = {}
        self._correct: frozenset = frozenset()
        self._byzantine: frozenset = frozenset()
        self._now: Callable[[], float] = lambda: 0.0

        # kernel-level accounting (correct vs Byzantine senders)
        self._kind_msgs: Dict[str, int] = {}
        self._kind_bits: Dict[str, int] = {}
        self._byz_kind_msgs: Dict[str, int] = {}
        self._byz_kind_bits: Dict[str, int] = {}
        self._push_bits: Dict[int, int] = {}
        self._push_msgs: Dict[int, int] = {}

        # engine-level accounting
        self._holders: Set[int] = set()
        self._candidate_adds: Dict[int, int] = {}
        self._poll_first: Dict[int, float] = {}
        self._decide_time: Dict[int, float] = {}
        self._budget_nodes: Set[int] = set()
        self._marked: Dict[str, Dict[str, object]] = {}

        # full-mode event capture
        self._events: List[Dict[str, object]] = []
        self._events_total = 0
        self._events_dropped = 0

    # ------------------------------------------------------------------
    # wiring (called by the kernel / the protocol adapters)
    # ------------------------------------------------------------------
    def bind_population(self, correct_ids, byzantine_ids) -> None:
        """Attach the run's identity partition (kernel construction time)."""
        self._correct = frozenset(correct_ids)
        self._byzantine = frozenset(byzantine_ids)

    def bind_clock(self, now: Callable[[], float]) -> None:
        """Attach the scheduler's clock, used to timestamp events."""
        self._now = now

    def mark_string(self, alias: str, value: str) -> None:
        """Track acceptance of one specific string under a stable alias.

        Summaries must stay JSON-small, so arbitrary candidate strings are
        never stored; a *marked* string (e.g. the scenario's ``gstring``) is
        counted by alias: how many holders start with it and how many accept
        it through a push majority — the Lemma 5 reach, without shipping the
        string itself through every record.
        """
        self._marked[alias] = {"value": value, "initial": 0, "accepted": 0}

    def candidate_holder(self, node_id: int, initial_candidate: str) -> None:
        """Register a node that maintains a candidate list (engine construction)."""
        self._holders.add(node_id)
        for marked in self._marked.values():
            if marked["value"] == initial_candidate:
                marked["initial"] += 1  # type: ignore[operator]

    def stage_boundary(self) -> None:
        """Start a new stage of a multi-stage composition.

        Event counters and message-kind totals keep accumulating across
        stages, but the per-node decision/poll timing maps are reset so the
        poll-latency distribution is computed within the current stage (a
        stage-1 decision time paired with a stage-2 poll would be garbage).
        """
        self._decide_time.clear()
        self._poll_first.clear()

    # ------------------------------------------------------------------
    # probe sites (dedicated methods — the hot paths)
    # ------------------------------------------------------------------
    def _count(self, name: str, increment: int = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + increment

    def _record(self, name: str, fields: Dict[str, object]) -> None:
        event = {"probe": name, "t": self._now(), **fields}
        self._events_total += 1
        if self._sink is not None:
            # Streaming: the JSONL file is the event store; buffering the
            # same dicts in memory would cost tens of MB per run for data
            # nothing reads (the sweep pipeline only keeps the summary).
            self._sink.write(json.dumps(event, sort_keys=True) + "\n")
        elif len(self._events) < self.max_buffered_events:
            self._events.append(event)
        else:
            self._events_dropped += 1

    def on_dispatch(self, sender: int, count: int, kind: str, bits: int) -> None:
        """A grouped ``(sender, dests, message)`` record entered the network.

        ``bits`` is the per-message cost; the kernel calls this once per
        multicast record, so the per-message fan-out stays off this path.
        """
        self._count("message_dispatched")
        if sender in self._correct:
            self._kind_msgs[kind] = self._kind_msgs.get(kind, 0) + count
            self._kind_bits[kind] = self._kind_bits.get(kind, 0) + count * bits
            if kind in PUSH_PHASE_KINDS:
                self._push_msgs[sender] = self._push_msgs.get(sender, 0) + count
                self._push_bits[sender] = self._push_bits.get(sender, 0) + count * bits
        else:
            self._byz_kind_msgs[kind] = self._byz_kind_msgs.get(kind, 0) + count
            self._byz_kind_bits[kind] = self._byz_kind_bits.get(kind, 0) + count * bits
        if self._full:
            self._record(
                "message_dispatched",
                {"sender": sender, "kind": kind, "count": count, "bits": bits},
            )

    def on_decided(self, node_id: int, time: float) -> None:
        """A correct node decided (kernel decision tracking)."""
        self._count("node_decided")
        self._decide_time.setdefault(node_id, time)
        if self._full:
            self._record("node_decided", {"node": node_id, "time": time})

    # ------------------------------------------------------------------
    # probe sites (engine-level)
    # ------------------------------------------------------------------
    def phase_started(self, node: int, phase: str) -> None:
        self._count("phase_started")
        if self._full:
            self._record("phase_started", {"node": node, "phase": phase})

    def push_sent(self, node: int, targets: int) -> None:
        self._count("push_sent")
        if self._full:
            self._record("push_sent", {"node": node, "targets": targets})

    def push_ignored(self, node: int) -> None:
        self._count("push_ignored")
        if self._full:
            self._record("push_ignored", {"node": node})

    def candidate_added(self, node: int, candidate: str) -> None:
        self._count("candidate_added")
        self._candidate_adds[node] = self._candidate_adds.get(node, 0) + 1
        for marked in self._marked.values():
            if marked["value"] == candidate:
                marked["accepted"] += 1  # type: ignore[operator]
        if self._full:
            self._record("candidate_added", {"node": node})

    def poll_started(self, node: int, poll_list: int, quorum: int) -> None:
        self._count("poll_started")
        self._poll_first.setdefault(node, self._now())
        if self._full:
            self._record(
                "poll_started", {"node": node, "poll_list": poll_list, "quorum": quorum}
            )

    def quorum_contacted(self, node: int, size: int) -> None:
        self._count("quorum_contacted")
        if self._full:
            self._record("quorum_contacted", {"node": node, "size": size})

    def poll_answered(self, node: int, origin: int) -> None:
        self._count("poll_answered")
        if self._full:
            self._record("poll_answered", {"node": node, "origin": origin})

    def budget_exhausted(self, node: int) -> None:
        self._count("budget_exhausted")
        self._budget_nodes.add(node)
        if self._full:
            self._record("budget_exhausted", {"node": node})

    # ------------------------------------------------------------------
    # generic, validated emission (extension probes)
    # ------------------------------------------------------------------
    def emit(self, probe: str, **fields) -> None:
        """Emit a probe by name; unknown probe names are rejected.

        The dedicated methods above are the hot-path spellings of the
        built-in probes; ``emit`` is the generic entry point.  Emitting a
        *built-in* probe through here dispatches to its dedicated method, so
        the specialized accounting (budget-limited node sets, candidate
        totals, latency maps, message-kind histograms) stays consistent no
        matter which spelling an engine uses.  Registered extension probes
        (see :func:`repro.trace.probes.register_probe`) get the generic
        count-and-record treatment.
        """
        point = get_probe(probe)
        unknown = sorted(set(fields) - set(point.fields))
        if unknown:
            raise ValueError(
                f"probe {probe!r} does not declare field(s) {', '.join(unknown)} "
                f"(declared: {', '.join(point.fields) or 'none'})"
            )
        handler = self._BUILTIN_HANDLERS.get(probe)
        if handler is not None:
            try:
                handler(self, **fields)
            except TypeError:
                raise ValueError(
                    f"built-in probe {probe!r} requires all of its declared "
                    f"field(s): {', '.join(point.fields)}"
                ) from None
            return
        self._count(probe)
        if self._full:
            self._record(probe, fields)

    #: built-in probe name → dedicated method, so the generic :meth:`emit`
    #: spelling feeds the same specialized accounting as the hot-path one
    #: (message_dispatched/node_decided adapt the declared field names to
    #: their methods' argument orders)
    _BUILTIN_HANDLERS: Dict[str, Callable] = {
        "phase_started": phase_started,
        "push_sent": push_sent,
        "push_ignored": push_ignored,
        "candidate_added": candidate_added,
        "poll_started": poll_started,
        "quorum_contacted": quorum_contacted,
        "poll_answered": poll_answered,
        "budget_exhausted": budget_exhausted,
        "message_dispatched": lambda self, sender, kind, count, bits: self.on_dispatch(
            sender, count, kind, bits
        ),
        "node_decided": lambda self, node, time: self.on_decided(node, time),
    }

    # ------------------------------------------------------------------
    # condensation
    # ------------------------------------------------------------------
    def summary(self) -> TraceSummary:
        """Condense everything recorded so far into a :class:`TraceSummary`."""
        push_population = sorted(self._correct) if self._correct else sorted(self._push_bits)
        push_bits = [self._push_bits.get(i, 0) for i in push_population]
        push_msgs = [self._push_msgs.get(i, 0) for i in push_population]
        push = {
            "total_bits": sum(push_bits),
            "max_node_bits": max(push_bits) if push_bits else 0,
            "mean_node_bits": (sum(push_bits) / len(push_bits)) if push_bits else 0.0,
            "max_node_messages": max(push_msgs) if push_msgs else 0,
        }

        candidates: Optional[Dict[str, float]] = None
        if self._holders:
            sizes = [1 + self._candidate_adds.get(i, 0) for i in sorted(self._holders)]
            candidates = {
                "total": sum(sizes),
                "max": max(sizes),
                "mean": sum(sizes) / len(sizes),
                "added": sum(self._candidate_adds.values()),
            }

        latencies = [
            self._decide_time[node] - started
            for node, started in self._poll_first.items()
            if node in self._decide_time
        ]
        polls: Dict[str, object] = {
            "started": self._counts.get("poll_started", 0),
            "answered": self._counts.get("poll_answered", 0),
            "budget_exhausted_events": self._counts.get("budget_exhausted", 0),
            "budget_exhausted_nodes": len(self._budget_nodes),
            "decided": len(self._decide_time),
            "latency": _stat_block(latencies),
        }

        marked = {
            alias: {
                "initial": int(entry["initial"]),  # type: ignore[arg-type]
                "accepted": int(entry["accepted"]),  # type: ignore[arg-type]
                "holders": int(entry["initial"]) + int(entry["accepted"]),  # type: ignore[arg-type]
            }
            for alias, entry in sorted(self._marked.items())
        }

        kinds = {
            kind: {"messages": self._kind_msgs[kind], "bits": self._kind_bits.get(kind, 0)}
            for kind in sorted(self._kind_msgs)
        }
        byz_kinds = {
            kind: {
                "messages": self._byz_kind_msgs[kind],
                "bits": self._byz_kind_bits.get(kind, 0),
            }
            for kind in sorted(self._byz_kind_msgs)
        }
        phase_bits = {
            "push": sum(b for k, b in self._kind_bits.items() if k in PUSH_PHASE_KINDS),
            "pull": sum(b for k, b in self._kind_bits.items() if k in PULL_PHASE_KINDS),
            "other": sum(
                b
                for k, b in self._kind_bits.items()
                if k not in PUSH_PHASE_KINDS and k not in PULL_PHASE_KINDS
            ),
        }

        full: Optional[Dict[str, object]] = None
        if self._full:
            full = {
                "events_captured": self._events_total,
                "events_dropped": self._events_dropped,
                "jsonl_path": self.jsonl_path,
            }

        return TraceSummary(
            mode=self.mode,
            events={name: self._counts[name] for name in sorted(self._counts)},
            message_kinds=kinds,
            byzantine_message_kinds=byz_kinds,
            phase_bits=phase_bits,
            push=push,
            candidates=candidates,
            polls=polls,
            marked=marked,
            full=full,
        )

    @property
    def events(self) -> List[Dict[str, object]]:
        """The buffered per-event records (``full`` mode without a JSONL sink).

        With a sink open the stream *is* the event store and this buffer
        stays empty; read the JSONL file instead.
        """
        return self._events

    def close(self) -> None:
        """Flush and close the JSONL sink, if one is open."""
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    def finalize(self) -> Dict[str, object]:
        """Summary as a plain dict, closing the JSONL sink — the adapters' one call."""
        try:
            return self.summary().to_dict()
        finally:
            self.close()


def collector_for_spec(spec) -> Optional[TraceCollector]:
    """Build the collector an :class:`~repro.experiments.plan.ExperimentSpec` asks for.

    ``spec.trace == "off"`` returns ``None`` (the zero-cost path).  In
    ``full`` mode the JSONL stream lands in ``$REPRO_TRACE_DIR`` (one file
    per spec) when that directory is set — the CLI's ``--trace-dir`` exports
    it so multiprocessing sweep workers inherit the destination.  The file
    name is the spec key plus a digest of the *whole* spec: two specs of one
    plan may share a key while differing in params/label/knobs (e.g. the
    answer-budget ablation), and each must get its own stream.
    """
    mode = getattr(spec, "trace", "off")
    if mode == "off":
        return None
    jsonl_path = None
    if mode == "full":
        trace_dir = os.environ.get("REPRO_TRACE_DIR")
        if trace_dir:
            os.makedirs(trace_dir, exist_ok=True)
            safe_key = spec.key.replace(":", "_").replace("/", "_")
            spec_json = json.dumps(spec.to_dict(), sort_keys=True, default=str)
            digest = hashlib.sha1(spec_json.encode("utf-8")).hexdigest()[:8]
            jsonl_path = os.path.join(trace_dir, f"{safe_key}-{digest}.jsonl")
    return TraceCollector(mode=mode, jsonl_path=jsonl_path)
