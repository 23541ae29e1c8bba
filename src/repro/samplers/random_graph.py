"""The random digraph model of Section 4.1.

To prove Lemma 2 the paper studies random digraphs on the vertex set
``[n] ∪ ([n] × R)``: each *labelled* vertex ``(x, r)`` has exactly ``d``
out-neighbours among the *unlabelled* vertices ``[n]``, chosen uniformly and
independently (Figure 3).  For a family ``L`` of labelled vertices with at
most one label per node, the border ``∂L`` is the set of edges leaving ``L``
towards ``[n] \\ L*``, and the paper shows

    ``P(u, s) = o(2^{-n})``  for ``0 < u ≤ n / log n`` and ``s < (2/3)·d·u``,

i.e. w.h.p. every such family expands.  This module provides the digraph
model itself (independently of the keyed-hash construction used at runtime)
and a Monte-Carlo estimator of the border-failure probability, which is what
the ``property2`` report section reports next to the analytic bound.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple


@dataclass
class LabelledDigraph:
    """A concrete sample of the Section 4.1 random digraph.

    Only the labelled vertices that have actually been queried are stored;
    the out-neighbourhoods are drawn lazily, which keeps Monte-Carlo trials
    over large ``n`` cheap.
    """

    n: int
    d: int
    label_space: int
    rng: random.Random

    def __post_init__(self) -> None:
        self._edges: Dict[Tuple[int, int], Tuple[int, ...]] = {}

    def out_neighbours(self, x: int, r: int) -> Tuple[int, ...]:
        """Out-neighbourhood of the labelled vertex ``(x, r)`` (``d`` iid uniform picks).

        Note the model counts neighbours *with multiplicity* (Section 4.1,
        condition 1), so repetitions are kept.
        """
        key = (x, r)
        cached = self._edges.get(key)
        if cached is None:
            cached = tuple(self.rng.randrange(self.n) for _ in range(self.d))
            self._edges[key] = cached
        return cached

    def border(self, family: Sequence[Tuple[int, int]]) -> int:
        """Size of ``∂L``: edges from the family to unlabelled vertices outside ``L*``."""
        l_star: Set[int] = {x for x, _ in family}
        total = 0
        for x, r in family:
            total += sum(1 for y in self.out_neighbours(x, r) if y not in l_star)
        return total

    def expansion_ratio(self, family: Sequence[Tuple[int, int]]) -> float:
        """``|∂L| / (d · |L|)`` — Property 2 asserts this exceeds 2/3."""
        if not family:
            return 1.0
        return self.border(family) / (self.d * len(family))


def random_family(
    n: int, label_space: int, size: int, rng: random.Random
) -> List[Tuple[int, int]]:
    """Draw a family ``L`` with ``size`` distinct nodes and one label each."""
    nodes = rng.sample(range(n), min(size, n))
    return [(x, rng.randrange(label_space)) for x in nodes]


def estimate_border_probability(
    n: int,
    d: int | None = None,
    label_space: int | None = None,
    family_sizes: Sequence[int] | None = None,
    trials: int = 200,
    seed: int = 0,
) -> Dict[int, float]:
    """Monte-Carlo estimate of ``P[|∂L| ≤ (2/3)·d·|L|]`` per family size.

    Returns ``{family size u: estimated failure probability}``.  The paper's
    analytic bound is ``o(2^{-n})`` — the estimator is expected to return
    zeros for every size, and the benchmark prints both side by side.
    """
    rng = random.Random(seed)
    if d is None:
        d = max(7, int(math.ceil(math.log2(max(2, n)))))
    if label_space is None:
        label_space = max(16, n * n)
    if family_sizes is None:
        upper = max(1, int(n / max(1.0, math.log2(max(2, n)))))
        family_sizes = sorted({1, max(1, upper // 4), max(1, upper // 2), upper})

    failures: Dict[int, float] = {}
    for size in family_sizes:
        bad = 0
        for trial in range(trials):
            graph = LabelledDigraph(n=n, d=d, label_space=label_space, rng=rng)
            family = random_family(n, label_space, size, rng)
            if graph.border(family) <= (2 * d * len(family)) / 3:
                bad += 1
        failures[size] = bad / max(1, trials)
    return failures
