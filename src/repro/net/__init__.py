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
"""

from repro.net.messages import Message
from repro.net.metrics import MetricsCollector, MetricsSummary
from repro.net.node import Node, NodeContext
from repro.net.results import SimulationResult
from repro.net.rng import DeterministicRNG, derive_rng, stable_hash
from repro.net.kernel import EventKernel
from repro.net.sync import SynchronousSimulator
from repro.net.asynchronous import AsynchronousSimulator, DelayPolicy, RandomDelayPolicy

__all__ = [
    "Message",
    "MetricsCollector",
    "MetricsSummary",
    "Node",
    "NodeContext",
    "SimulationResult",
    "DeterministicRNG",
    "derive_rng",
    "stable_hash",
    "EventKernel",
    "SynchronousSimulator",
    "AsynchronousSimulator",
    "DelayPolicy",
    "RandomDelayPolicy",
]
