"""The schedulers, the engine backends and what the vectorized one supports, without numpy.

Validating a ``backend="vectorized"`` spec needs these names but must not
load what they describe: a spec is validated by everything that names,
stores or serves it (the CLI, the result store, the report), and only a spec
that actually runs needs :mod:`repro.vec`.  The vectorized engines import
their tuples from here, so each is defined once.
"""

from __future__ import annotations

from typing import Optional, Tuple

#: schedulers: lock-step rounds and the adversarially delayed event queue
MODES: Tuple[str, ...] = ("sync", "async")

#: engine backends: the per-message kernel (:mod:`repro.net`) and :mod:`repro.vec`
BACKENDS: Tuple[str, ...] = ("message", "vectorized")

#: adversary strategies the vectorized AER engine (:mod:`repro.vec.engine`)
#: can replay.  ``cornering`` and ``cornering_nodelay`` are
#: statistical-equivalence only (see that module's docs); the rest are exact.
VEC_ADVERSARIES: Tuple[str, ...] = (
    "none",
    "silent",
    "push_flood",
    "quorum_flood",
    "cornering",
    "cornering_nodelay",
)

#: adversary strategies the vectorized ``sample_majority`` baseline
#: (:mod:`repro.vec.majority`) can replay
VEC_MAJORITY_ADVERSARIES: Tuple[str, ...] = ("none", "silent")


def check_backend(
    backend: str,
    mode: str = "sync",
    rushing: bool = False,
    traced: bool = False,
    faulted: bool = False,
    vec_memory_mb: Optional[float] = None,
) -> None:
    """Raise ``ValueError`` if ``backend`` cannot run a run of this shape.

    ``mode`` must be one of :data:`MODES`.  The vectorized engine is
    synchronous, non-rushing, untraced and fault-free; ``vec_memory_mb``
    budgets its working set and means nothing to the message kernel.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r} (expected {' or '.join(map(repr, MODES))})")
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r} "
            f"(expected {', '.join(repr(b) for b in BACKENDS)})"
        )
    if backend != "vectorized":
        if vec_memory_mb is not None:
            raise ValueError(
                "vec_memory_mb only applies to backend='vectorized' (the "
                "message kernel has no chunked working set to budget)"
            )
        return
    if faulted:
        raise ValueError(
            "backend='vectorized' does not implement fault injection; "
            "use backend='message' for faulted runs"
        )
    if mode != "sync":
        raise ValueError(
            "backend='vectorized' is synchronous only "
            f"(got mode={mode!r}); use backend='message' for async runs"
        )
    if rushing:
        raise ValueError(
            "backend='vectorized' does not implement a rushing adversary; "
            "use backend='message' for rushing runs"
        )
    if traced:
        raise ValueError(
            "backend='vectorized' does not implement trace probes; "
            "use backend='message' for traced runs"
        )
