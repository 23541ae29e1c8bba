"""Array-shaped sampler tables for the vectorized backend.

The message kernel asks the samplers scalar questions (``is y in I(s, x)?``)
millions of times; the vectorized engine instead wants whole tables as
``(rows, d)`` integer matrices it can gather from.  :class:`VecSamplerTables`
provides them, bit-identical to the Python samplers, at every ``n``: rows
come from :mod:`repro.vec.hashing`, which makes the samplers' own
``hashlib`` draws a table at a time (the exact message↔vectorized matrix
checks the two against each other).

Storage is the ``n = 10⁶`` part of the story (ARCHITECTURE.md "vec memory
model"): member rows are held **bit-packed** at ``ceil(log2 n)`` bits per id
(:mod:`repro.vec.bitpack`), ~3× smaller than the int64 rows the engine used
to keep, and that is their only form: every gather decodes the rows it
asks for into int32, and a whole-table pass streams chunked decodes, so
no ``(n, d)`` int32 matrix is kept between calls.

Poll rows (``J``) are a packed table too, but a sparse one: ``J(x, r)`` is
keyed by the pair, and a run only ever draws the labels its nodes' RNG
streams produce.  Each distinct pair is hashed once per provider, stored
bit-packed next to a sorted key index, and decoded on every later launch,
so a second run at the same ``(n, seed)`` hashes no poll row at all.

Providers are cached per process (keyed by the sampler parameters) so bench
repetitions and sweep workers reuse the expensive full tables, mirroring
``AERConfig.shared_samplers``.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import AERConfig
from repro.samplers.tables import LRUCache
from repro.vec.bitpack import bits_for, pack_rows, packed_width, unpack_rows
# batch_digest_mod is unused here but stays bound on this module: the
# outside-in bench tracer wraps it under this name.
from repro.vec.hashing import batch_digest_mod, encode_parts, first_distinct_rows  # noqa: F401

#: process-local provider cache (packed tables are ~100 MB per string at
#: ``n = 10⁶``; keeping a few providers warm is the point)
_PROVIDER_CACHE: LRUCache = LRUCache(4)

#: table rows materialised per build/stream chunk — bounds the transient
#: int64 row block and uint8 bit planes of the batched-hash build to a few
#: tens of MB
_BUILD_CHUNK = 1 << 15

#: poll-table capacity in rows per node.  A run launches about one poll per
#: correct node and string it accepts, so 2n keeps every row of a run and
#: bounds the table at two ``(n, d)`` tables' worth of packed bytes.
_POLL_ROWS_PER_NODE = 2


class _PackedFamilyTable:
    """Lazily row-materialised, bit-packed member matrix for ``(family, string)``."""

    __slots__ = ("packed", "built", "size", "bits")

    def __init__(self, n: int, size: int, bits: int) -> None:
        self.size = size
        self.bits = bits
        self.packed = np.zeros((n, packed_width(size, bits)), dtype=np.uint8)
        self.built = np.zeros(n, dtype=bool)


class _PackedPollTable:
    """Bit-packed poll rows ``J(x, r)`` under the key ``x · label_space + r``.

    Rows are written into ``packed`` (grown to fit, up to ``capacity`` rows)
    in arrival order; ``keys`` (sorted) and ``slots`` index them.  A
    batch that would overflow the capacity empties the table first, and
    one larger than the capacity is not kept.
    """

    __slots__ = ("capacity", "size", "bits", "packed", "keys", "slots", "rows")

    def __init__(self, capacity: int, size: int, bits: int) -> None:
        self.capacity = capacity
        self.size = size
        self.bits = bits
        self.packed = np.empty((0, packed_width(size, bits)), dtype=np.uint8)
        self.keys = np.empty(0, dtype=np.int64)
        self.slots = np.empty(0, dtype=np.int64)
        self.rows = 0

    def find(self, keys: np.ndarray) -> np.ndarray:
        """The slot of every key, ``-1`` where it is not in the table."""
        if self.rows == 0:
            return np.full(len(keys), -1, dtype=np.int64)
        pos = np.searchsorted(self.keys, keys).clip(max=self.rows - 1)
        return np.where(self.keys[pos] == keys, self.slots[pos], -1)

    def decode(self, slots: np.ndarray) -> np.ndarray:
        """The rows at ``slots`` as an int32 matrix."""
        return unpack_rows(self.packed[slots], self.size, self.bits)

    def add(self, keys: np.ndarray, rows: np.ndarray) -> None:
        """Keep ``rows`` under ``keys`` (distinct, none already present)."""
        if self.rows + len(keys) > self.capacity:
            self.keys = self.keys[:0]
            self.slots = self.slots[:0]
            self.rows = 0
            if len(keys) > self.capacity:
                return
        start, end = self.rows, self.rows + len(keys)
        if end > len(self.packed):
            grown = np.empty((end, self.packed.shape[1]), dtype=np.uint8)
            grown[:start] = self.packed[:start]
            self.packed = grown
        # chunked, like ensure_rows: bounds pack_rows' transient bit planes
        for lo in range(0, len(keys), _BUILD_CHUNK):
            chunk = rows[lo : lo + _BUILD_CHUNK]
            self.packed[start + lo : start + lo + len(chunk)] = pack_rows(chunk, self.bits)
        order = np.argsort(keys)
        pos = np.searchsorted(self.keys, keys[order])
        self.keys = np.insert(self.keys, pos, keys[order])
        self.slots = np.insert(self.slots, pos, start + order)
        self.rows = end


class VecSamplerTables:
    """Quorum/poll membership as integer matrices, shared across runs.

    ``family`` is ``"I"`` (push quorums) or ``"H"`` (pull quorums); poll
    rows (``J``) are keyed by ``(node, label)`` pairs.  All rows are sorted
    tuples of distinct members — the samplers' canonical representation.
    """

    def __init__(self, config: AERConfig) -> None:
        self.config = config
        self.n = config.n
        self.size = min(config.quorum_size, config.n)
        self.bits = bits_for(config.n)
        self._tables: Dict[Tuple[str, str], _PackedFamilyTable] = {}
        #: None when ``x · label_space + r`` would not fit an int64 key
        self._poll: Optional[_PackedPollTable] = None
        if self.n * config.label_space <= np.iinfo(np.int64).max:
            self._poll = _PackedPollTable(_POLL_ROWS_PER_NODE * self.n, self.size, self.bits)

    # ------------------------------------------------------------------
    # quorum families I and H
    # ------------------------------------------------------------------
    def _table(self, family: str, s: str) -> _PackedFamilyTable:
        key = (family, s)
        table = self._tables.get(key)
        if table is None:
            table = _PackedFamilyTable(self.n, self.size, self.bits)
            self._tables[key] = table
        return table

    def _build_rows(self, family: str, s: str, xs: np.ndarray) -> np.ndarray:
        """Member rows for ``xs`` straight from the hash (unpacked)."""
        prefix = encode_parts(self.config.sampler_seed, family, s)
        return first_distinct_rows(prefix, [xs], self.size, self.n, dtype=np.int32)

    def ensure_rows(self, family: str, s: str, xs: np.ndarray) -> None:
        """Materialise the quorum rows for the nodes in ``xs`` (idempotent)."""
        table = self._table(family, s)
        missing = np.asarray(xs, dtype=np.int64)
        missing = np.unique(missing[~table.built[missing]])
        if len(missing) == 0:
            return
        for lo in range(0, len(missing), _BUILD_CHUNK):
            chunk = missing[lo : lo + _BUILD_CHUNK]
            rows = self._build_rows(family, s, chunk)
            table.packed[chunk] = pack_rows(rows, self.bits)
        table.built[missing] = True

    def ensure_all(self, family: str, s: str) -> None:
        """Materialise every row of one ``(family, string)`` table."""
        table = self._table(family, s)
        if not table.built.all():
            self.ensure_rows(family, s, np.arange(self.n))

    def rows(self, family: str, s: str, xs: np.ndarray) -> np.ndarray:
        """Member rows for the nodes in ``xs`` as an ``(len(xs), d)`` matrix."""
        idx = np.asarray(xs, dtype=np.int64)
        self.ensure_rows(family, s, idx)
        return unpack_rows(self._tables[(family, s)].packed[idx], self.size, self.bits)

    def iter_rows(
        self, family: str, s: str, chunk_rows: int
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Stream the complete table as ``(start, (k, d) rows)`` chunks.

        Builds every row first (packed), then decodes ``chunk_rows`` at a
        time — the full int32 matrix never exists.
        """
        self.ensure_all(family, s)
        packed = self._tables[(family, s)].packed
        step = max(1, int(chunk_rows))
        for start in range(0, self.n, step):
            yield start, unpack_rows(packed[start : start + step], self.size, self.bits)

    def full(self, family: str, s: str) -> np.ndarray:
        """The complete ``(n, d)`` member matrix for one string (decoded)."""
        self.ensure_all(family, s)
        return unpack_rows(self._tables[(family, s)].packed, self.size, self.bits)

    def packed_nbytes(self) -> int:
        """Bytes of the packed member and poll tables (tests/instrumentation)."""
        poll = 0 if self._poll is None else self._poll.packed.nbytes
        return poll + sum(table.packed.nbytes for table in self._tables.values())

    # ------------------------------------------------------------------
    # poll family J
    # ------------------------------------------------------------------
    def poll_rows(self, xs: Sequence[int], labels: Sequence[int]) -> np.ndarray:
        """Poll-list rows ``J(x, r)`` for the given pairs as an int32 matrix.

        Pairs already in the poll table are decoded from it; the others are
        drawn, each distinct pair once, and kept.  Pairs outside
        ``[0, n) × [0, label_space)`` are rejected: their keys could collide.
        """
        xs = np.asarray(xs, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        space = self.config.label_space
        if not ((xs >= 0) & (xs < self.n) & (labels >= 0) & (labels < space)).all():
            raise ValueError(f"poll pairs must lie in [0, {self.n}) x [0, {space})")
        table = self._poll
        if table is None:
            return self._draw_poll_rows(xs, labels)
        keys = xs * space + labels
        slots = table.find(keys)
        missing = np.nonzero(slots < 0)[0]
        if len(missing) == 0:
            return table.decode(slots)
        # draw each missing pair once, in order of first appearance
        _, first, inverse = np.unique(keys[missing], return_index=True, return_inverse=True)
        order = np.argsort(first)
        new = missing[first[order]]
        drawn = self._draw_poll_rows(xs[new], labels[new])
        if len(new) == len(keys):
            out = drawn  # nothing kept, nothing repeated: the draws are in input order
        else:
            out = np.empty((len(keys), self.size), dtype=np.int32)
            hit = slots >= 0
            out[hit] = table.decode(slots[hit])
            rank = np.empty_like(order)
            rank[order] = np.arange(len(order))
            out[missing] = drawn[rank[inverse]]
        # after the hits are read: adding may empty the table
        table.add(keys[new], drawn)
        return out

    def _draw_poll_rows(self, xs: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """``J(x, r)`` straight from the hash (int32)."""
        prefix = encode_parts(self.config.sampler_seed, "J")
        return first_distinct_rows(prefix, [xs, labels], self.size, self.n, dtype=np.int32)


def tables_for(config: AERConfig) -> VecSamplerTables:
    """The process-local cached table provider for ``config``.

    Mirrors :meth:`AERConfig.shared_samplers`: tables are pure functions of
    the sampler parameters, so reuse across runs is behaviour-neutral and
    buys warmth for benchmark repetitions and sweep workers.
    """
    key = (
        config.n,
        config.quorum_size,
        config.label_space,
        config.sampler_seed,
    )
    cached = _PROVIDER_CACHE.get(key)
    if cached is None:
        cached = VecSamplerTables(config)
        _PROVIDER_CACHE.put(key, cached)
    return cached
