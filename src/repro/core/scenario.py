"""Input instances for AER: who is Byzantine, who already knows ``gstring``.

The precondition of AER (Section 3.1) is an *almost-everywhere* state: more
than half of all nodes are correct **and** hold the same string ``gstring``
(equivalently, at least 3/4 of the correct nodes know it when
``t < (1/3 − ε)n``), the string is ``c log n`` bits long and mostly random.
A :class:`AERScenario` captures one concrete such state; in the full BA
pipeline it is produced by the almost-everywhere agreement substrate
(:mod:`repro.ae`), and in the AER-only experiments it is synthesised directly
by :func:`make_scenario`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.core import WRONG_CANDIDATE_MODES
from repro.core.aer import AERNode
from repro.core.config import AERConfig, SamplerSuite
from repro.net.rng import derive_rng, random_bitstring


@dataclass(frozen=True)
class AERScenario:
    """A concrete almost-everywhere state handed to AER.

    Attributes
    ----------
    n:
        System size.
    gstring:
        The string that the knowledgeable nodes share and that every correct
        node should end up deciding.
    byzantine_ids:
        Identities controlled by the adversary (chosen non-adaptively).
    candidates:
        Initial candidate string ``s_x`` of every *correct* node.
    """

    n: int
    gstring: str
    byzantine_ids: FrozenSet[int]
    candidates: Dict[int, str]

    @property
    def correct_ids(self) -> List[int]:
        """Identities of the correct nodes, in increasing order."""
        return sorted(self.candidates)

    @property
    def knowledgeable_ids(self) -> List[int]:
        """Correct nodes whose initial candidate already equals ``gstring``."""
        return [i for i, s in sorted(self.candidates.items()) if s == self.gstring]

    @property
    def knowledge_fraction_of_all(self) -> float:
        """Fraction of *all* nodes that are correct and know ``gstring``."""
        return len(self.knowledgeable_ids) / self.n

    def validate(self) -> None:
        """Raise ``ValueError`` if the scenario violates AER's precondition."""
        if set(self.candidates) & set(self.byzantine_ids):
            raise ValueError("a node cannot be both correct and Byzantine")
        if len(self.candidates) + len(self.byzantine_ids) != self.n:
            raise ValueError("candidates and byzantine_ids must partition [0, n)")
        if self.knowledge_fraction_of_all <= 0.5:
            raise ValueError(
                "AER requires more than half of all nodes to be correct and know gstring "
                f"(got {self.knowledge_fraction_of_all:.2f})"
            )


def make_scenario(
    n: int,
    config: Optional[AERConfig] = None,
    t: Optional[int] = None,
    knowledge_fraction: float = 0.56,
    wrong_candidate_mode: str = "random",
    byzantine_ids: Optional[Sequence[int]] = None,
    gstring: Optional[str] = None,
    seed: int = 0,
) -> AERScenario:
    """Synthesise an almost-everywhere state for a system of ``n`` nodes.

    Parameters
    ----------
    config:
        Protocol configuration (used for the string length); defaults to
        :meth:`AERConfig.for_system`.
    t:
        Number of Byzantine nodes; defaults to ``⌊n/4⌋`` (well inside the
        ``t < (1/3 − ε)n`` bound so the precondition is satisfiable even at
        small ``n``).  When ``byzantine_ids`` is given and ``t`` is omitted,
        ``t`` is derived from the explicit corrupt set; giving both with
        mismatching sizes is an error.
    knowledge_fraction:
        Fraction of *all* nodes that are correct and start with ``gstring``;
        must exceed 1/2.
    wrong_candidate_mode:
        What the remaining correct nodes hold initially — ``"random"`` (each
        a fresh random string), ``"default"`` (all the all-zeros string) or
        ``"common_wrong"`` (all the same adversarially useful wrong string,
        the hardest case for Lemma 4).
    byzantine_ids:
        Explicit corrupt set; drawn uniformly at random when omitted (the
        adversary is non-adaptive, so a fixed-before-the-run set is faithful).
    gstring:
        Explicit global string; a fresh random ``c log n``-bit string when
        omitted (Lemma 5 requires most of its bits to be random).
    seed:
        Seed for all the random choices above.
    """
    if wrong_candidate_mode not in WRONG_CANDIDATE_MODES:
        raise ValueError(f"unknown wrong_candidate_mode {wrong_candidate_mode!r}")
    if config is None:
        config = AERConfig.for_system(n)
    rng = derive_rng(seed, "scenario", n)

    if byzantine_ids is None:
        if t is None:
            t = n // 4
        if t >= n:
            raise ValueError("t must be smaller than n")
        byz = frozenset(rng.sample(range(n), t))
    else:
        byz = frozenset(byzantine_ids)
        if t is None:
            # An explicit corrupt set fully determines t; deriving it here
            # (instead of silently defaulting to n // 4) keeps the size checks
            # below honest.
            t = len(byz)
        elif len(byz) != t:
            raise ValueError(
                f"explicit byzantine_ids ({len(byz)} nodes) conflict with explicit t={t}"
            )
        if t >= n:
            raise ValueError("t must be smaller than n")
    correct = [i for i in range(n) if i not in byz]

    if gstring is None:
        gstring = random_bitstring(rng, config.string_length)

    knowledgeable_target = int(math.floor(knowledge_fraction * n)) + 1
    knowledgeable_target = max(knowledgeable_target, n // 2 + 1)
    if knowledgeable_target > len(correct):
        raise ValueError(
            f"cannot make {knowledgeable_target} of {len(correct)} correct nodes "
            "knowledgeable; lower t or the knowledge fraction"
        )
    knowledgeable = set(rng.sample(correct, knowledgeable_target))

    wrong_common = random_bitstring(rng, config.string_length)
    candidates: Dict[int, str] = {}
    for node_id in correct:
        if node_id in knowledgeable:
            candidates[node_id] = gstring
        elif wrong_candidate_mode == "default":
            candidates[node_id] = "0" * config.string_length
        elif wrong_candidate_mode == "common_wrong":
            candidates[node_id] = wrong_common
        else:  # "random"
            candidates[node_id] = random_bitstring(rng, config.string_length)

    scenario = AERScenario(
        n=n, gstring=gstring, byzantine_ids=byz, candidates=candidates
    )
    scenario.validate()
    return scenario


def build_aer_nodes(
    scenario: AERScenario,
    config: AERConfig,
    samplers: Optional[SamplerSuite] = None,
    trace=None,
) -> List[AERNode]:
    """Construct the correct-node population for a scenario.

    All nodes share the same :class:`~repro.core.config.SamplerSuite`, built
    from the configuration when not supplied explicitly, and the same
    optional :class:`~repro.trace.collector.TraceCollector`.
    """
    if samplers is None:
        samplers = config.shared_samplers()
    # Per-run scratch (the pull engines' shared Fw1 edge memo and serve
    # plans) starts fresh: cached suites keep their *tables* warm across
    # runs, but per-message memos reference run-local message objects and
    # would otherwise accumulate garbage in the process-local suite cache.
    samplers.pull.shared_scratch.clear()
    return [
        AERNode(
            node_id=node_id,
            config=config,
            samplers=samplers,
            initial_candidate=scenario.candidates[node_id],
            trace=trace,
        )
        for node_id in scenario.correct_ids
    ]
