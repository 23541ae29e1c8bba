"""The paper's primary contribution: the AER and BA protocols.

``AER`` (Section 3) solves the *almost-everywhere to everywhere* problem:
given that more than half of the nodes are correct and already know a common
string ``gstring``, it brings **every** correct node to know (and decide on)
``gstring`` w.h.p., with amortized communication ``O~(1)`` per node, in
``O(1)`` rounds against a synchronous non-rushing adversary and
``O(log n / log log n)`` time asynchronously.

``BA`` composes an almost-everywhere agreement substrate (in the style of
[KSSV06], provided by :mod:`repro.ae`) with AER, yielding the paper's
headline result: Byzantine Agreement with poly-logarithmic communication and
time.

Public surface
--------------
``AERConfig``      — all protocol parameters (quorum sizes, thresholds, seeds).
``AERScenario``    — an input instance: who is Byzantine, who knows ``gstring``.
``AERNode``        — the per-node protocol state machine (push + pull phases).
``build_aer_nodes``— construct the correct-node population for a scenario.
``BAConfig`` / ``BAProtocol`` — the composed Byzantine Agreement protocol.

The re-exports are lazy (:mod:`repro.lazy`): importing ``repro.core.config``
for a parameter never loads the node state machine or the kernel, and
validating a spec reads :data:`WRONG_CANDIDATE_MODES` without loading
:mod:`repro.core.scenario`.
"""

from repro.lazy import lazy_exports

#: what the correct nodes that do not know ``gstring`` hold initially
#: (``make_scenario``'s ``wrong_candidate_mode``)
WRONG_CANDIDATE_MODES = ("random", "default", "common_wrong")

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repro.core.config": ("AERConfig", "SamplerSuite"),
        "repro.core.scenario": ("AERScenario", "build_aer_nodes", "make_scenario"),
        "repro.core.aer": ("AERNode",),
        "repro.core.ba": ("BAConfig", "BAProtocol", "BAResult"),
    },
)
