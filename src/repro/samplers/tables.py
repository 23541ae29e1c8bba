"""Precomputed sampler tables and the bounded LRU cache that holds them.

The protocol layer performs millions of membership and threshold checks per
run (``is y in I(s, x)?``, ``how many votes make a majority of H(s, w)?``).
Recomputing — or even re-hashing — quorum tuples per message dominates the
simulator's wall-clock cost at interesting ``n``.  This module provides the
shared answer:

* :class:`QuorumTable` — the per-*string* view of a quorum sampler.  For a
  fixed string ``s`` it materialises, per node ``x``, the quorum as both a
  sorted tuple (the canonical public representation) and a ``frozenset`` (for
  O(1) membership); every quorum has the same size, so one majority threshold
  serves the whole table; the inverse table
  ``y → {x : y ∈ quorum(s, x)}`` is built in the same single pass over all
  nodes the first time any inverse lookup is made.
* :class:`LRUCache` — a small bounded least-recently-used mapping used to
  retain tables for the strings currently in flight.  It replaces the old
  "clear everything on overflow" eviction, which caused cache thrash in the
  middle of a run whenever the candidate population crossed the limit.

Tables are *views*: they never change what a sampler returns, only how often
the underlying keyed hash has to be evaluated.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Generic, Optional, Tuple, TypeVar

K = TypeVar("K")
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """A bounded mapping evicting the least-recently-used entry on overflow.

    Unlike the clear-all strategy it replaces, eviction is incremental: only
    the single coldest entry is dropped when capacity is exceeded, so entries
    in active use are never lost mid-run.  Hit/miss/eviction counters are kept
    for diagnostics and for the eviction regression tests.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("LRU capacity must be at least 1")
        self.capacity = capacity
        self._data: "OrderedDict[K, V]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def get(self, key: K) -> Optional[V]:
        """Return the cached value (marking it most-recently-used) or ``None``."""
        value = self._data.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        self._data.move_to_end(key)
        return value

    def put(self, key: K, value: V) -> None:
        """Insert ``key`` as the most-recently-used entry, evicting if needed."""
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        while len(data) > self.capacity:
            data.popitem(last=False)
            self.evictions += 1

    def get_or_create(self, key: K, factory: Callable[[K], V]) -> V:
        """Return the cached value for ``key``, creating it via ``factory`` on a miss."""
        value = self._data.get(key)
        if value is not None:
            self.hits += 1
            self._data.move_to_end(key)
            return value
        self.misses += 1
        value = factory(key)
        self.put(key, value)
        return value


class QuorumTable:
    """All quorum facts about one string ``s``, filled lazily per node.

    The table answers the three questions the protocol hot paths ask —
    ``quorum(x)``, ``contains(x, member)`` and ``threshold(x)`` — in O(1)
    after the first touch of ``x``, and materialises the inverse mapping
    ``y → (x₁, x₂, …)`` in one pass over all nodes on first use.

    Per-node entries are filled on demand rather than eagerly because the
    pull phase touches only a handful of nodes for most wrong candidate
    strings; the push phase, which needs the inverse, triggers the full
    one-pass build anyway.
    """

    __slots__ = ("n", "_compute", "_tuples", "_sets", "_threshold", "_inverse")

    def __init__(self, n: int, compute: Callable[[int], Tuple[int, ...]]) -> None:
        self.n = n
        self._compute = compute
        self._tuples: Dict[int, Tuple[int, ...]] = {}
        self._sets: Dict[int, frozenset] = {}
        #: ``size // 2 + 1`` of the table's quorums, known from the first fill
        self._threshold = 0
        self._inverse: Optional[Dict[int, Tuple[int, ...]]] = None

    # ------------------------------------------------------------------
    # forward direction
    # ------------------------------------------------------------------
    def quorum(self, x: int) -> Tuple[int, ...]:
        """The quorum of node ``x`` as a sorted tuple (canonical representation)."""
        members = self._tuples.get(x)
        if members is None:
            members = self._fill(x)
        return members

    def members(self, x: int) -> frozenset:
        """The quorum of node ``x`` as a frozenset (O(1) membership)."""
        member_set = self._sets.get(x)
        if member_set is None:
            self._fill(x)
            member_set = self._sets[x]
        return member_set

    def contains(self, x: int, member: int) -> bool:
        """Whether ``member`` belongs to the quorum of node ``x``."""
        member_set = self._sets.get(x)
        if member_set is None:
            self._fill(x)
            member_set = self._sets[x]
        return member in member_set

    def threshold(self, x: int) -> int:
        """Smallest count constituting "more than half" of the quorum of ``x``."""
        if not self._threshold:
            self._fill(x)
        return self._threshold

    def _fill(self, x: int) -> Tuple[int, ...]:
        members = self._compute(x)
        self._tuples[x] = members
        self._sets[x] = frozenset(members)
        self._threshold = len(members) // 2 + 1
        return members

    # ------------------------------------------------------------------
    # inverse direction
    # ------------------------------------------------------------------
    def inverse_of(self, y: int) -> Tuple[int, ...]:
        """Every node ``x`` whose quorum contains ``y`` (one full pass, then O(1))."""
        if self._inverse is None:
            self.build_full()
        return self._inverse.get(y, ())  # type: ignore[union-attr]

    def build_full(self) -> None:
        """Materialise every quorum and the inverse table in a single pass."""
        if self._inverse is not None:
            return
        builder: Dict[int, list] = {}
        for x in range(self.n):
            members = self._tuples.get(x)
            if members is None:
                members = self._fill(x)
            for member in members:
                bucket = builder.get(member)
                if bucket is None:
                    builder[member] = [x]
                else:
                    bucket.append(x)
        self._inverse = {member: tuple(xs) for member, xs in builder.items()}

    @property
    def fully_built(self) -> bool:
        """Whether the one-pass full build (and inverse) has been performed."""
        return self._inverse is not None


class PollEntry:
    """Precomputed facts about one poll list ``J(x, r)``.

    Every poll list has the sampler's ``list_size`` members, so the majority
    threshold is the sampler's (:attr:`PollSampler.threshold
    <repro.samplers.poll_sampler.PollSampler.threshold>`), not the entry's.
    """

    __slots__ = ("members", "member_set")

    def __init__(self, members: Tuple[int, ...]) -> None:
        self.members = members
        self.member_set = frozenset(members)
