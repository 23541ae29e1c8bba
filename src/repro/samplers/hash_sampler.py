"""Keyed-hash quorum samplers ``I`` and ``H`` (paper Lemma 1).

Lemma 1 (from [KLST11]) asserts the existence of a ``(θ, δ)``-sampler
``H : D × [n] → [n]^d`` with ``d = O(log n)`` such that no node is
overloaded.  We realise it constructively with a keyed hash: the quorum of
the pair ``(s, x)`` is the multiset-free set of ``d`` nodes obtained by
hashing ``(seed, name, s, x, counter)`` until ``d`` distinct nodes have been
produced (:func:`repro.net.rng.first_distinct`, the one member draw that
``J``, the AE committees and the vectorized tables of
:mod:`repro.vec.hashing` make too).  Because the hash behaves like a random
function, the construction is a uniformly random ``d``-subset for every
input pair — which is exactly the probabilistic object whose existence (with
the required properties) the lemma proves.  The empirical property checkers in
:mod:`repro.samplers.properties` verify, for the sizes used in the
experiments, that no node is overloaded and that the deviation bound holds.

The same class implements both ``I`` (push quorums) and ``H`` (pull quorums);
they differ only in the ``name`` key so the two families are independent.

Hot-path note: all per-string state — quorum tuples, ``frozenset`` membership
views, majority thresholds and the inverse table — lives in one
:class:`~repro.samplers.tables.QuorumTable` per string, held in a bounded LRU
cache.  The protocol layer fetches the table once per message via
:meth:`QuorumSampler.table` and then performs O(1) ``contains``/``threshold``
lookups, instead of recomputing (or even re-scanning) quorum tuples.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.net.rng import absorb, first_distinct, hash_prefix, keyed_draws
from repro.samplers.base import SamplerSpec
from repro.samplers.tables import LRUCache, QuorumTable

#: default number of strings whose tables are retained (LRU) per sampler
DEFAULT_MAX_CACHED_STRINGS = 64


class QuorumSampler:
    """Deterministic map from ``(string, node)`` pairs to quorums of size ``d``.

    Parameters
    ----------
    spec:
        Shared sampler parameters (``n``, ``d``, seed).
    name:
        Family name (``"I"`` for push quorums, ``"H"`` for pull quorums);
        different names give independent samplers from the same seed.
    max_cached_strings:
        Capacity of the per-string table cache.  Eviction is LRU — only the
        coldest string's table is dropped on overflow, never the whole cache.
    """

    def __init__(
        self,
        spec: SamplerSpec,
        name: str,
        max_cached_strings: int = DEFAULT_MAX_CACHED_STRINGS,
    ) -> None:
        self.spec = spec
        self.name = name
        self.n = spec.n
        self.quorum_size = min(spec.quorum_size, spec.n)
        self._tables: LRUCache[str, QuorumTable] = LRUCache(max_cached_strings)
        # One-slot memo for the most recently requested string: consecutive
        # messages overwhelmingly concern the same candidate, and the memo
        # answers them without touching the LRU bookkeeping.
        self._hot_string: Optional[str] = None
        self._hot_table: Optional[QuorumTable] = None
        #: scratch space shared by every protocol engine bound to this sampler
        #: (all nodes of one run share the sampler suite); engines use it to
        #: memoise pure per-message facts across the recipients of a multicast
        self.shared_scratch: dict = {}

    # ------------------------------------------------------------------
    # table access (the hot-path API)
    # ------------------------------------------------------------------
    def table(self, s: str) -> QuorumTable:
        """Return the (cached) precomputed table for string ``s``.

        Protocol code that performs several lookups for the same string
        should fetch the table once and query it directly.
        """
        if s == self._hot_string:
            return self._hot_table  # type: ignore[return-value]
        table = self._tables.get(s)
        if table is None:
            table = QuorumTable(self.n, self._make_compute(s))
            self._tables.put(s, table)
        self._hot_string = s
        self._hot_table = table
        return table

    def _make_compute(self, s: str):
        """Build the per-string quorum computation with a shared hash prefix.

        ``(seed, name, s)`` is constant for every draw of this string's
        table, so it is absorbed once; per draw only ``x`` and the counter
        are hashed on a copy.  Digests are bit-identical to
        ``stable_hash(seed, name, s, x, counter)``.
        """
        prefix = hash_prefix(self.spec.seed, self.name, s)
        quorum_size = self.quorum_size
        n = self.n

        def compute(x: int) -> Tuple[int, ...]:
            hasher = prefix.copy()
            absorb(hasher, x)
            return first_distinct(hasher, quorum_size, n)

        return compute

    # ------------------------------------------------------------------
    # forward direction
    # ------------------------------------------------------------------
    def quorum(self, s: str, x: int) -> Tuple[int, ...]:
        """Return the quorum assigned to string ``s`` and node ``x``.

        The result is a sorted tuple of ``d`` distinct node identities and is
        identical on every node evaluating it (shared sampler assumption).
        """
        return self.table(s).quorum(x)

    def member_draws(self, s: str, x: int) -> Iterator[int]:
        """The draws ``quorum(s, x)`` is made of, in counter order, repeats included.

        The quorum is the sorted set of the first ``quorum_size`` distinct
        values.  A caller that decides from a prefix of them (the Lemma 4
        adversary's majority test) stops early and caches no table.
        """
        return keyed_draws(hash_prefix(self.spec.seed, self.name, s, x), self.n)

    def contains(self, s: str, x: int, member: int) -> bool:
        """Whether ``member`` belongs to the quorum of ``(s, x)`` — O(1)."""
        return self.table(s).contains(x, member)

    def majority_threshold(self, s: str, x: int) -> int:
        """Smallest count that constitutes "more than half" of quorum ``(s, x)``."""
        return self.table(s).threshold(x)

    # ------------------------------------------------------------------
    # inverse direction
    # ------------------------------------------------------------------
    def inverse(self, s: str, y: int) -> Tuple[int, ...]:
        """Return every node ``x`` such that ``y ∈ quorum(s, x)``.

        The push phase needs this: a node ``y`` holding candidate ``s_y``
        pushes it to exactly the nodes whose push quorum for ``s_y`` contains
        ``y``.  The first call for a string triggers the table's one-pass
        full build (all ``n`` quorums plus the inverse mapping); subsequent
        calls are O(1).
        """
        return self.table(s).inverse_of(y)

    # ------------------------------------------------------------------
    # cache introspection (diagnostics and eviction tests)
    # ------------------------------------------------------------------
    @property
    def cache_info(self) -> LRUCache:
        """The underlying per-string table cache (hits/misses/evictions)."""
        return self._tables
