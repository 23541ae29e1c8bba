"""Common parameters for the sampler constructions."""

from __future__ import annotations

import math
from dataclasses import dataclass


def default_quorum_size(n: int, multiplier: float = 2.0, minimum: int = 7) -> int:
    """Return the quorum/poll-list size ``d = O(log n)`` used throughout.

    The paper only requires ``d = Θ(log n)`` (Lemmas 1 and 2); the multiplier
    trades failure probability against communication and is swept by the
    ``ablation_quorum`` report section.  The value is forced odd so that
    "more than half" thresholds never tie.
    """
    d = max(minimum, int(math.ceil(multiplier * math.log2(max(2, n)))))
    if d % 2 == 0:
        d += 1
    return min(d, max(1, n))


def default_label_space(n: int) -> int:
    """Cardinality of the label domain ``R`` (polynomial in ``n`` per Lemma 2)."""
    return max(16, n * n)


def default_string_length(n: int, multiplier: int = 4) -> int:
    """Length ``c log n`` of ``gstring`` (Lemma 5 requires a large enough ``c``)."""
    return max(8, multiplier * int(math.ceil(math.log2(max(2, n)))))


@dataclass(frozen=True)
class SamplerSpec:
    """Shared parameters of the three samplers ``I``, ``H`` and ``J``.

    Attributes
    ----------
    n:
        System size.
    quorum_size:
        ``d``, the size of each push quorum, pull quorum and poll list.
    label_space:
        Cardinality of the label domain ``R`` used by ``J``.
    seed:
        Public seed of the keyed hash realising the samplers.  The seed is
        *public* information — the adversary is allowed to know the samplers
        (full-information model); unpredictability comes from the private
        per-node labels ``r`` and from ``gstring``, not from the seed.
    """

    n: int
    quorum_size: int
    label_space: int
    seed: int = 0

    @staticmethod
    def for_system(n: int, seed: int = 0, quorum_multiplier: float = 2.0) -> "SamplerSpec":
        """Build the default specification for a system of ``n`` nodes."""
        return SamplerSpec(
            n=n,
            quorum_size=default_quorum_size(n, multiplier=quorum_multiplier),
            label_space=default_label_space(n),
            seed=seed,
        )
