"""The poll-list sampler ``J`` (paper Lemma 2).

``J : [n] × R → [n]^d`` maps a node ``x`` and a random label ``r`` to the
*poll list* that is authoritative for ``x``'s pull request labelled ``r``.
Lemma 2 requires two properties:

* **Property 1** — at most ``δ·n`` pairs ``(x, r)`` are mapped to a set with
  a minority of good nodes, for any fixed good set of size ``(1/2 + ε)n``;
* **Property 2** (novel) — no small family ``L`` of pairs (one label per
  node, ``|L| = O(n / log n)``) can keep more than a third of its outgoing
  poll-list edges inside its own node set ``L*``; formally
  ``Σ_{(x,r)∈L} |J(x, r) \\ L*| > (2/3)·d·|L|``.

Property 2 is what prevents the adversary from "cornering" a set of nodes and
starving their polls (it powers the ``O(log n / log log n)`` asynchronous
bound of Lemma 6).  Section 4.1 of the paper proves that a uniformly random
digraph satisfies it with probability ``1 - o(n² 2^{-n})``; our keyed-hash
construction is such a random digraph, and
:func:`repro.samplers.properties.property2_holds` checks concrete instances.
``J(x, r)`` is the sorted first ``d`` distinct draws of ``(seed, name, x, r,
counter)``, made by :func:`repro.net.rng.first_distinct` — the member draw
of ``I``, ``H``, the AE committees and :mod:`repro.vec.hashing` as well.

Hot-path note: each ``(x, r)`` pair resolves to a cached
:class:`~repro.samplers.tables.PollEntry` holding the sorted tuple and a
``frozenset`` membership view, and every list shares the sampler's one
majority :attr:`~PollSampler.threshold`, so the protocol layer's
``contains``/``threshold`` checks are O(1).  The cache is a bounded
LRU (incremental eviction, never a full clear).
"""

from __future__ import annotations

from typing import Tuple

from repro.net.rng import absorb, first_distinct, hash_prefix
from repro.samplers.base import SamplerSpec
from repro.samplers.tables import LRUCache, PollEntry

#: default number of (node, label) poll entries retained (LRU)
DEFAULT_MAX_CACHED_ENTRIES = 200_000


class PollSampler:
    """Deterministic map from ``(node, label)`` pairs to poll lists of size ``d``."""

    def __init__(
        self,
        spec: SamplerSpec,
        name: str = "J",
        max_cached_entries: int = DEFAULT_MAX_CACHED_ENTRIES,
    ) -> None:
        self.spec = spec
        self.name = name
        self.n = spec.n
        self.list_size = min(spec.quorum_size, spec.n)
        #: "more than half" of every poll list (all have ``list_size`` members)
        self.threshold = self.list_size // 2 + 1
        self.label_space = spec.label_space
        self._entries: LRUCache[Tuple[int, int], PollEntry] = LRUCache(max_cached_entries)
        # One-slot memo for the most recently requested (x, r) pair; delivery
        # batches are grouped by poll, so consecutive lookups usually repeat.
        self._hot_x = -1
        self._hot_r = -1
        self._hot_entry: PollEntry = None  # type: ignore[assignment]
        # (seed, name) is constant across draws; absorbing it once and copying
        # yields digests bit-identical to stable_hash(seed, name, x, r, counter).
        self._prefix = hash_prefix(spec.seed, name)

    # ------------------------------------------------------------------
    # entry access (the hot-path API)
    # ------------------------------------------------------------------
    def entry(self, x: int, r: int) -> PollEntry:
        """Return the (cached) precomputed entry for ``J(x, r)``.

        Protocol code performing several lookups for the same pair should
        fetch the entry once and query ``member_set`` directly.
        """
        if x == self._hot_x and r == self._hot_r:
            return self._hot_entry
        key = (x, r)
        entry = self._entries.get(key)
        if entry is not None:
            self._hot_x, self._hot_r, self._hot_entry = x, r, entry
            return entry
        if not 0 <= r < self.label_space:
            raise ValueError(f"label {r} outside the label space [0, {self.label_space})")
        hasher = self._prefix.copy()
        absorb(hasher, x)
        absorb(hasher, r)
        entry = PollEntry(first_distinct(hasher, self.list_size, self.n))
        self._entries.put(key, entry)
        self._hot_x, self._hot_r, self._hot_entry = x, r, entry
        return entry

    def poll_list(self, x: int, r: int) -> Tuple[int, ...]:
        """Return the poll list ``J(x, r)`` — a sorted tuple of ``d`` distinct nodes."""
        return self.entry(x, r).members

    def contains(self, x: int, r: int, member: int) -> bool:
        """Whether ``member`` belongs to ``J(x, r)`` — O(1)."""
        if x == self._hot_x and r == self._hot_r:  # inline the hot-memo hit
            return member in self._hot_entry.member_set
        return member in self.entry(x, r).member_set

    def majority_threshold(self, x: int, r: int) -> int:
        """Smallest count that constitutes "more than half" of ``J(x, r)``."""
        return self.threshold

    # ------------------------------------------------------------------
    # cache introspection (diagnostics and eviction tests)
    # ------------------------------------------------------------------
    @property
    def cache_info(self) -> LRUCache:
        """The underlying entry cache (hits/misses/evictions)."""
        return self._entries
