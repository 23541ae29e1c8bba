"""Message-passing simulation substrate.

This package provides the execution environment that the paper assumes as its
model (Section 2.1): a fully-connected, authenticated, reliable message
passing network of ``n`` nodes, observed by a Byzantine adversary, executed
either in synchronous rounds or asynchronously with adversarially chosen
message delays.

The substrate is a *deterministic discrete-event simulator*: every run is a
pure function of the master seed, the protocol, and the adversary, which makes
the experiments in ``benchmarks/`` reproducible bit-for-bit.

Public surface
--------------
``Node``
    Base class for protocol participants (correct nodes).
``NodeContext``
    Handle through which a node interacts with the network (send, rng, time).
``Message``
    Base class for wire messages with explicit bit accounting.
``MetricsCollector`` / ``MetricsSummary``
    Per-node and aggregate communication/time accounting.
``EventKernel``
    The shared simulation machinery (population wiring, batched dispatch and
    delivery, decision tracking); both simulators are thin scheduling
    policies over it.
``SynchronousSimulator``
    Lock-step round execution with rushing or non-rushing adversary.
``AsynchronousSimulator``
    Event-queue execution with adversary-controlled (bounded) delays.
``SimulationResult``
    Outcome of a run: per-node decisions, time, metrics.

The re-exports are lazy (:mod:`repro.lazy`): importing ``repro.net.rng`` or
``repro.net.messages`` never loads the kernel or the schedulers.
"""

from repro.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repro.net.messages": ("Message",),
        "repro.net.metrics": ("MetricsCollector", "MetricsSummary"),
        "repro.net.node": ("Node", "NodeContext"),
        "repro.net.results": ("SimulationResult",),
        "repro.net.rng": ("DeterministicRNG", "derive_rng", "stable_hash"),
        "repro.net.kernel": ("EventKernel",),
        "repro.net.sync": ("SynchronousSimulator",),
        "repro.net.asynchronous": ("AsynchronousSimulator", "DelayPolicy", "RandomDelayPolicy"),
    },
)
