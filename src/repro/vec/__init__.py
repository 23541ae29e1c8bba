"""Vectorized whole-round engine backend (``backend="vectorized"``).

The message-passing kernel in :mod:`repro.net` is the semantic oracle: one
Python object per node, one dispatch per message.  This package is the other
end of the trade — a whole synchronous round as a handful of numpy array
passes, for system sizes (``n >= 10**5``) where per-message Python dispatch
is three orders of magnitude too slow to fit a growth-fit sweep.

Layout
------
``hashing``
    The samplers' keyed blake2b draws (`repro.net.rng.stable_hash`) made a
    table at a time with ``hashlib``; members selected in numpy.
``bitpack``
    Bit-level array storage: ``ceil(log2 n)``-bit packed member-index rows
    and one-bit-per-cell boolean matrices (:class:`~repro.vec.bitpack.BitMatrix`).
``tables``
    Array-shaped sampler tables: ``(rows, d)`` member matrices for the
    ``I``/``H`` quorum families and the ``J`` poll rows keyed by
    ``(node, label)``, built from the batched hash at every ``n`` —
    bit-identical to the message backend's draws.  Stored only bit-packed
    (the ``n = 10⁶`` memory contract) and decoded per gather; a poll row is
    drawn once per provider and decoded by every later run that launches it.
``labels``
    The nodes' private label draws (``randrange`` on their ``derive_rng``
    streams), replayed a batch at a time by re-running CPython's Mersenne
    Twister seeding as uint32 array passes.
``engine``
    The vectorized AER synchronous round loop, streaming its Fw1/Fw2
    fan-outs under an explicit memory budget (``vec_memory_mb``).
``majority``
    The vectorized ``sample_majority`` baseline.

Verification contract (see ARCHITECTURE.md "engine backends"): exact golden
equality against the message kernel on the draw-order-compatible small-``n``
subset, and cross-seed statistical equivalence (CI overlap) at large ``n``.

Unlike ``repro.core`` or ``repro.net``, this package re-exports eagerly: only
a vectorized run imports it (validating a ``backend="vectorized"`` spec reads
:mod:`repro.backends` instead), and the benchmark's tracer resolves
``run_aer_vectorized`` from this namespace.
"""

from repro.vec.engine import DEFAULT_VEC_MEMORY_MB, VEC_ADVERSARIES, run_aer_vectorized
from repro.vec.majority import run_sample_majority_vectorized
from repro.vec.tables import VecSamplerTables

__all__ = [
    "DEFAULT_VEC_MEMORY_MB",
    "VEC_ADVERSARIES",
    "VecSamplerTables",
    "run_aer_vectorized",
    "run_sample_majority_vectorized",
]
