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

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.core import WRONG_CANDIDATE_MODES, knowledgeable_count
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
    *,
    t: Optional[int],
    knowledge_fraction: float,
    wrong_candidate_mode: str,
    byzantine_ids: Optional[Sequence[int]] = None,
    gstring: Optional[str] = None,
    seed: int = 0,
) -> AERScenario:
    """Synthesise an almost-everywhere state for a system of ``n`` nodes.

    The scenario knobs ``t``, ``knowledge_fraction`` and
    ``wrong_candidate_mode`` have no default here; ``ExperimentSpec`` holds
    their only defaults.

    Parameters
    ----------
    config:
        Protocol configuration (used for the string length); defaults to
        :meth:`AERConfig.for_system`.
    t:
        Number of Byzantine nodes.  ``None`` only beside an explicit
        ``byzantine_ids``, whose size it then is; giving both with
        mismatching sizes is an error.
    knowledge_fraction:
        More than this fraction of *all* nodes (and more than half) are
        correct and start with ``gstring``
        (:func:`repro.core.knowledgeable_count`).
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

    if byzantine_ids is not None:
        byzantine_ids = frozenset(byzantine_ids)
        if t not in (None, len(byzantine_ids)):
            raise ValueError(
                f"explicit byzantine_ids ({len(byzantine_ids)} nodes) conflict with explicit t={t}"
            )
        t = len(byzantine_ids)
    elif t is None:
        raise ValueError("give t or an explicit byzantine_ids")
    if t >= n:
        raise ValueError("t must be smaller than n")
    byz = frozenset(rng.sample(range(n), t)) if byzantine_ids is None else byzantine_ids
    correct = [i for i in range(n) if i not in byz]

    if gstring is None:
        gstring = random_bitstring(rng, config.string_length)

    target = knowledgeable_count(n, len(byz), knowledge_fraction)
    knowledgeable = set(rng.sample(correct, target))

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
