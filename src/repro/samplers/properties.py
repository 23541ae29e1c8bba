"""Empirical checkers for the sampler properties the analysis relies on.

The paper's correctness argument (Section 4) rests on a handful of
combinatorial properties of the samplers ``I``, ``H`` and ``J``:

* **no overload** (Definition in Section 2.2, used in Lemma 3): for every
  string ``s``, no node belongs to more than ``a·d`` of the quorums
  ``{I(s, x)}_x``;
* **(θ, δ)-sampler deviation** (Definition 2.2, used in Lemmas 4 and 5): for
  any fixed bad set ``S``, only a ``δ`` fraction of inputs see ``S``
  over-represented by more than ``θ``;
* **Property 1** of Lemma 2 (used in Lemma 7): few poll lists have a minority
  of good nodes;
* **Property 2** of Lemma 2 (used in Lemma 6): small families of poll lists
  expand — they cannot be confined to their own node set.

These functions evaluate the properties on concrete sampler instances.  They
are used both by the test-suite (sanity at small ``n``) and by the
``property2`` report section, which reproduces the
Monte-Carlo counterpart of the probability computation in Section 4.1.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Set, Tuple

from repro.samplers.hash_sampler import QuorumSampler
from repro.samplers.poll_sampler import PollSampler


# ----------------------------------------------------------------------
# overload (Lemma 1 / Lemma 3)
# ----------------------------------------------------------------------
def overload_counts(sampler: QuorumSampler, s: str) -> Dict[int, int]:
    """Return ``{node: number of quorums of string s containing it}``."""
    counts: Dict[int, int] = {}
    for x in range(sampler.n):
        for member in sampler.quorum(s, x):
            counts[member] = counts.get(member, 0) + 1
    return counts


def check_no_overload(sampler: QuorumSampler, s: str, factor: float = 4.0) -> bool:
    """Whether no node is overloaded for string ``s`` (threshold ``factor · d``).

    The expected load of a node is exactly ``d`` (each of the ``n`` quorums
    has ``d`` members among ``n`` nodes), so ``factor`` bounds the allowed
    deviation; Lemma 1 guarantees a constant factor exists.
    """
    threshold = factor * sampler.quorum_size
    return all(count <= threshold for count in overload_counts(sampler, s).values())


# ----------------------------------------------------------------------
# (θ, δ)-sampler deviation (Definition 2.2)
# ----------------------------------------------------------------------
def estimate_sampler_deviation(
    sampler: QuorumSampler,
    bad_set: Set[int],
    strings: Sequence[str],
    theta: float,
) -> float:
    """Fraction of inputs whose quorum over-represents ``bad_set`` by more than ``theta``.

    Definition (Section 2.2): ``S`` is a ``(θ, δ)``-sampler if for any set
    ``S ⊆ Y``, at most a ``δ`` fraction of inputs ``x`` have
    ``|S(x) ∩ S| / |S(x)| > |S|/n + θ``.  This estimates that fraction over
    the supplied input strings (inputs here are pairs ``(s, x)``).
    """
    if not strings:
        return 0.0
    base_fraction = len(bad_set) / sampler.n
    violations = 0
    total = 0
    for s in strings:
        for x in range(sampler.n):
            quorum = sampler.quorum(s, x)
            fraction = sum(1 for member in quorum if member in bad_set) / len(quorum)
            if fraction > base_fraction + theta:
                violations += 1
            total += 1
    return violations / total


# ----------------------------------------------------------------------
# Property 1 of Lemma 2
# ----------------------------------------------------------------------
def estimate_minority_fraction(
    sampler: PollSampler,
    good_nodes: Set[int],
    samples: int,
    rng: random.Random,
) -> float:
    """Estimate the fraction of ``(x, r)`` pairs whose poll list has a good-node minority.

    Property 1 requires this fraction to be at most ``δ = 1/n`` of the domain;
    the estimate is Monte-Carlo over ``samples`` uniformly random pairs.
    """
    if samples <= 0:
        return 0.0
    bad = 0
    for _ in range(samples):
        x = rng.randrange(sampler.n)
        r = rng.randrange(sampler.label_space)
        members = sampler.poll_list(x, r)
        good = sum(1 for member in members if member in good_nodes)
        if good * 2 <= len(members):
            bad += 1
    return bad / samples


# ----------------------------------------------------------------------
# Property 2 of Lemma 2 (the border / expansion property)
# ----------------------------------------------------------------------
def border_size(sampler: PollSampler, family: Sequence[Tuple[int, int]]) -> int:
    """Compute ``Σ_{(x,r)∈L} |J(x, r) \\ L*|`` for a family ``L`` of labelled pairs.

    ``L*`` is the set of nodes appearing as the first component of some pair
    in ``L`` (the notation of Lemma 2).  The returned quantity is the size of
    the "border" ``∂L`` of Section 4.1: the number of poll-list edges leaving
    the family's own node set.
    """
    l_star = {x for x, _ in family}
    total = 0
    for x, r in family:
        members = sampler.poll_list(x, r)
        total += sum(1 for member in members if member not in l_star)
    return total


def property2_holds(sampler: PollSampler, family: Sequence[Tuple[int, int]]) -> bool:
    """Whether the expansion bound ``|∂L| > (2/3)·d·|L|`` holds for this family.

    Families must respect the Lemma 2 side conditions: at most one label per
    node and ``|L| = O(n / log n)``; the caller is responsible for that (the
    adversarial strategies in :mod:`repro.adversary.cornering` and the
    benchmarks construct admissible families).
    """
    if not family:
        return True
    nodes = [x for x, _ in family]
    if len(set(nodes)) != len(nodes):
        raise ValueError("family must contain at most one label per node")
    return border_size(sampler, family) > (2 * sampler.list_size * len(family)) / 3


def worst_family_border_ratio(
    sampler: PollSampler,
    family_size: int,
    trials: int,
    rng: random.Random,
    greedy: bool = True,
) -> float:
    """Search for a low-expansion family and return the worst ratio ``|∂L| / (d·|L|)`` found.

    This is the adversary's side of Property 2: it would like to find a
    family whose poll lists stay inside the family's own node set.  Two
    heuristics are provided — uniformly random families, and a greedy
    procedure that grows the family by repeatedly adding the pair whose poll
    list overlaps the current node set the most (a much stronger attack).
    The benchmark reports the worst ratio found; Property 2 predicts it stays
    above ``2/3``.
    """
    if family_size <= 0:
        return 1.0
    family_size = min(family_size, sampler.n)
    worst = float("inf")
    for _ in range(trials):
        if greedy:
            family = _greedy_family(sampler, family_size, rng)
        else:
            family = _random_family(sampler, family_size, rng)
        ratio = border_size(sampler, family) / (sampler.list_size * len(family))
        worst = min(worst, ratio)
    return worst


def _random_family(
    sampler: PollSampler, family_size: int, rng: random.Random
) -> List[Tuple[int, int]]:
    nodes = rng.sample(range(sampler.n), family_size)
    return [(x, rng.randrange(sampler.label_space)) for x in nodes]


def _greedy_family(
    sampler: PollSampler, family_size: int, rng: random.Random, label_tries: int = 8
) -> List[Tuple[int, int]]:
    """Grow a family greedily, preferring pairs whose poll lists point inward."""
    family: List[Tuple[int, int]] = []
    node_set: Set[int] = set()
    start = rng.randrange(sampler.n)
    family.append((start, rng.randrange(sampler.label_space)))
    node_set.add(start)

    available = [x for x in range(sampler.n) if x != start]
    rng.shuffle(available)
    candidate_pool = available[: max(4 * family_size, 32)]

    while len(family) < family_size and candidate_pool:
        best_pair = None
        best_outside = None
        for x in candidate_pool[: 4 * family_size]:
            for _ in range(label_tries):
                r = rng.randrange(sampler.label_space)
                members = sampler.poll_list(x, r)
                outside = sum(1 for member in members if member not in node_set)
                if best_outside is None or outside < best_outside:
                    best_outside = outside
                    best_pair = (x, r)
        assert best_pair is not None
        family.append(best_pair)
        node_set.add(best_pair[0])
        candidate_pool.remove(best_pair[0])
    return family
