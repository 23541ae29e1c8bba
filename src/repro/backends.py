"""The engine backends and what the vectorized one supports, without numpy.

Validating a ``backend="vectorized"`` spec needs these names but must not
load what they describe: a spec is validated by everything that names,
stores or serves it (the CLI, the result store, the report), and only a spec
that actually runs needs :mod:`repro.vec`.  The vectorized engines import
their tuples from here, so each is defined once.
"""

from __future__ import annotations

from typing import Tuple

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
