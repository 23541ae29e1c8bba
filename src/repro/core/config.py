"""Protocol parameters for AER.

Everything the analysis of Section 4 treats as a constant or a function of
``n`` lives here: the quorum size ``d = O(log n)``, the length ``c log n`` of
``gstring``, the label space ``R`` of the poll sampler, and the per-node
answer budget ``log² n`` of Algorithm 3.  Keeping them in one dataclass makes
the ablation report sections (``ablation_*``) one-liners: build a config,
tweak one knob, re-run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.net.messages import SizeModel
from repro.samplers.base import (
    SamplerSpec,
    default_label_space,
    default_quorum_size,
    default_string_length,
)
from repro.samplers.tables import LRUCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.samplers.hash_sampler import QuorumSampler
    from repro.samplers.poll_sampler import PollSampler

#: process-local suite cache capacity (suites are a few MB of tables each)
_SUITE_CACHE_CAPACITY = 8


@dataclass(frozen=True)
class SamplerSuite:
    """The three shared samplers of Section 3.1: push quorums, pull quorums, poll lists."""

    push: QuorumSampler   #: ``I`` — push quorums (Section 3.1.1)
    pull: QuorumSampler   #: ``H`` — pull quorums (Section 3.1.2)
    poll: PollSampler     #: ``J`` — poll lists (Lemma 2)


@dataclass(frozen=True)
class AERConfig:
    """All tunable parameters of the AER protocol.

    Attributes
    ----------
    n:
        System size.
    epsilon:
        The slack ``ε`` in the assumptions ``t < (1/3 − ε)n`` and
        "``1/2 + ε`` fraction of the nodes are correct and know ``gstring``".
    quorum_size:
        ``d`` — size of push quorums, pull quorums and poll lists.
    string_length:
        Length of ``gstring`` in bits (``c log n`` per Lemma 5).
    label_space:
        Cardinality of the label domain ``R`` of the poll sampler.
    answer_budget:
        Maximum number of ``Answer`` messages a node sends *before it has
        decided* (the ``log² n`` filter of Algorithm 3); requests beyond the
        budget are deferred until the node decides.
    sampler_seed:
        Public seed defining the shared samplers.
    eager_pull:
        When true (default) a node starts verifying a candidate as soon as it
        enters its list ``L_x``; when false it waits ``pull_start_round``
        synchronous rounds — used by the ablation benchmarks only.
    pull_start_round:
        Round at which the pull phase starts when ``eager_pull`` is false.
    """

    n: int
    epsilon: float = 1 / 12
    quorum_size: int = 0
    string_length: int = 0
    label_space: int = 0
    answer_budget: int = 0
    sampler_seed: int = 0
    eager_pull: bool = True
    pull_start_round: int = 2

    @staticmethod
    def for_system(
        n: int,
        epsilon: float = 1 / 12,
        sampler_seed: int = 0,
        quorum_multiplier: float = 2.0,
        string_multiplier: int = 4,
    ) -> "AERConfig":
        """Build the default configuration for ``n`` nodes.

        The defaults follow the asymptotic prescriptions of the paper:
        ``d = Θ(log n)`` quorums, ``c log n``-bit strings, ``|R| = n²`` labels
        and a ``⌈log₂ n⌉²`` answer budget.
        """
        log_n = math.log2(max(2, n))
        return AERConfig(
            n=n,
            epsilon=epsilon,
            quorum_size=default_quorum_size(n, multiplier=quorum_multiplier),
            string_length=default_string_length(n, multiplier=string_multiplier),
            label_space=default_label_space(n),
            answer_budget=max(4, int(math.ceil(log_n)) ** 2),
            sampler_seed=sampler_seed,
        )

    # ------------------------------------------------------------------
    # derived objects
    # ------------------------------------------------------------------
    def sampler_spec(self) -> SamplerSpec:
        """The sampler parameters implied by this configuration."""
        return SamplerSpec(
            n=self.n,
            quorum_size=self.quorum_size,
            label_space=self.label_space,
            seed=self.sampler_seed,
        )

    def build_samplers(self) -> SamplerSuite:
        """Instantiate the shared samplers ``I``, ``H`` and ``J`` (always fresh)."""
        # Only a run builds samplers: a config read for its parameters (the
        # report's row builders) does not load the sampler classes.
        from repro.samplers.hash_sampler import QuorumSampler
        from repro.samplers.poll_sampler import PollSampler

        spec = self.sampler_spec()
        return SamplerSuite(
            push=QuorumSampler(spec, name="I"),
            pull=QuorumSampler(spec, name="H"),
            poll=PollSampler(spec, name="J"),
        )

    def shared_samplers(self) -> SamplerSuite:
        """The process-local cached suite for this configuration (warm tables).

        Sampler suites are deterministic pure functions of the config: every
        table, membership set, threshold and inverse entry they hold is a
        memo of a keyed hash, so *reusing* a suite across runs is
        behaviour-neutral — the golden equivalence tests pin this.  What
        reuse buys is warmth: repeated runs of the same spec (the min-of-N
        benchmark repetitions, the trace-overhead guard, back-to-back report
        sections on one grid point) skip rebuilding the quorum/poll tables
        entirely.  The cache is bounded (LRU, capacity
        ``_SUITE_CACHE_CAPACITY``) and per process, so a sweep worker's
        later specs on the same grid point start warm.
        """
        return _suite_cache.get_or_create(self, lambda config: config.build_samplers())

    def size_model(self) -> SizeModel:
        """Bit-accounting model matching this configuration."""
        return SizeModel(n=self.n, label_space=self.label_space)

    def max_byzantine(self) -> int:
        """Largest number of corrupted nodes tolerated: ``t < (1/3 − ε)·n``.

        Strictly below the bound, also where it is a whole number.
        """
        return max(0, math.ceil((1 / 3 - self.epsilon) * self.n) - 1)

    def with_(self, **changes) -> "AERConfig":
        """Return a copy with the given fields replaced (ablation helper)."""
        return replace(self, **changes)


#: the process-local suite cache behind :meth:`AERConfig.shared_samplers`
_suite_cache: "LRUCache[AERConfig, SamplerSuite]" = LRUCache(_SUITE_CACHE_CAPACITY)

