"""The typed probe points of the trace subsystem.

A *probe point* is a named event site inside the protocol engines or the
event kernel.  The set of probe points is closed and typed: every probe has
a declared field tuple, and :meth:`repro.trace.collector.TraceCollector.emit`
rejects names that are not registered here — a typo'd probe fails loudly at
the emission site instead of silently producing an empty report column.

The built-in probe points and who emits them:

=================== ======================================================
``phase_started``    :class:`~repro.core.aer.AERNode` — a node entered the
                     push or pull phase (``phase`` is ``"push"``/``"pull"``)
``push_sent``        :class:`~repro.core.aer.AERNode` — the node multicast
                     its candidate to its ``I⁻¹`` targets (Lemma 3)
``push_ignored``     :class:`~repro.core.push.PushEngine` — an incoming push
                     was dropped by the Section 3.1.1 filter
``candidate_added``  :class:`~repro.core.push.PushEngine` — a quorum
                     majority completed and a string entered ``L_x``
                     (Lemma 4/5)
``poll_started``     :class:`~repro.core.pull.PullEngine` — Algorithm 1
                     launched the verification of a candidate
``quorum_contacted`` :class:`~repro.core.pull.PullEngine` — the poller
                     multicast its ``Pull`` to the pull quorum ``H(s, x)``
``poll_answered``    :class:`~repro.core.pull.PullEngine` — a poll-list
                     member sent an ``Answer`` (Algorithm 3)
``budget_exhausted`` :class:`~repro.core.pull.PullEngine` and the
                     sampled-majority baseline — an answer/reply was
                     deferred or refused because the per-node budget was
                     spent (the Lemma 6 filter)
``message_dispatched`` the event kernel — a (multicast) send entered the
                     network, with its kind and per-message bit cost
``node_decided``     the event kernel — a correct node decided
``fault_crashed``    :class:`~repro.faults.FaultInjector` — churn crashed a
                     correct node at a time boundary
``fault_recovered``  :class:`~repro.faults.FaultInjector` — a crashed node
                     recovered (crash-recovery churn)
``fault_dropped``    :class:`~repro.faults.FaultInjector` — a delivery was
                     vetoed (``reason`` is ``down``/``partition``/``loss``)
=================== ======================================================

Custom engines may emit any of these through
:meth:`~repro.trace.collector.TraceCollector.emit`; registering *new* probe
points is done with :func:`register_probe` (see the README extension guide).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: the accepted values of the ``trace`` experiment knob
TRACE_MODES = ("off", "summary", "full")


@dataclass(frozen=True)
class ProbePoint:
    """Declaration of one probe: its name, meaning and payload fields."""

    name: str
    description: str
    fields: Tuple[str, ...] = ()


#: the registry of known probe points, keyed by name
PROBE_POINTS: Dict[str, ProbePoint] = {}


def register_probe(probe: ProbePoint, replace: bool = False) -> ProbePoint:
    """Register a probe point (``ValueError`` on duplicate names).

    Extensions declare their probe before emitting it::

        from repro.trace import ProbePoint, register_probe

        register_probe(ProbePoint("echo_replied", "my protocol replied", ("node",)))
        ...
        trace.emit("echo_replied", node=self.node_id)
    """
    if probe.name in PROBE_POINTS and not replace:
        raise ValueError(f"probe point {probe.name!r} is already registered")
    PROBE_POINTS[probe.name] = probe
    return probe


def get_probe(name: str) -> ProbePoint:
    """Return the probe registered under ``name`` (``ValueError`` if unknown)."""
    probe = PROBE_POINTS.get(name)
    if probe is None:
        known = ", ".join(sorted(PROBE_POINTS))
        raise ValueError(f"unknown probe point {name!r} (known: {known})")
    return probe


for _probe in (
    ProbePoint("phase_started", "a node entered a protocol phase", ("node", "phase")),
    ProbePoint("push_sent", "a node multicast its candidate to its push targets",
               ("node", "targets")),
    ProbePoint("push_ignored", "an incoming push was dropped by the quorum filter",
               ("node",)),
    ProbePoint("candidate_added", "a string entered a node's candidate list L_x",
               ("node", "candidate")),
    ProbePoint("poll_started", "Algorithm 1 launched the verification of a candidate",
               ("node", "poll_list", "quorum")),
    ProbePoint("quorum_contacted", "a poller contacted its pull quorum H(s, x)",
               ("node", "size")),
    ProbePoint("poll_answered", "a poll-list member sent an Answer", ("node", "origin")),
    ProbePoint("budget_exhausted", "an answer was deferred/refused: budget spent",
               ("node",)),
    ProbePoint("message_dispatched", "a (multicast) send entered the network",
               ("sender", "kind", "count", "bits")),
    ProbePoint("node_decided", "a correct node decided", ("node", "time")),
    ProbePoint("fault_crashed", "churn crashed a correct node", ("node", "time")),
    ProbePoint("fault_recovered", "a crashed node recovered", ("node", "time")),
    ProbePoint("fault_dropped", "fault injection vetoed a delivery",
               ("sender", "dest", "reason")),
):
    register_probe(_probe)
