"""Each node's private label draws, replayed for a whole batch at once.

Every correct node draws its poll labels from its private stream
``derive_rng(seed, "node", x)`` (Section 2.1), a ``random.Random`` seeded
with ``stable_hash(seed, "node", x)``, one ``randrange(label_space)`` per
launched poll.  :func:`draw_labels` replays those draws from a per-node
draw counter.  A large batch of ``(node, draw index)`` pairs replays
CPython's Mersenne Twister (Matsumoto & Nishimura, ACM TOMACS 1998) as
uint32 array passes across all its nodes:

* ``Random.seed(key)`` runs ``init_by_array`` on ``key``'s little-endian
  32-bit words over the fixed state ``init_genrand(19650218)``: two
  sequential loops over the 624 state rows, each step a handful of uint32
  operations that :func:`first_outputs` runs for every node at once;
* the first twist's output ``j < 227`` reads only seeded rows ``j``,
  ``j + 1`` and ``j + 397`` (row 0 is ``0x80000000``), so only those rows
  are kept, and the first loop's rows are recomputed in step with the
  second instead of holding the 624-row state of every node;
* ``randrange(space)`` takes ``k = space.bit_length()`` bits per attempt
  (one word ``>> (32 - k)``; for ``33 <= k <= 64`` a low word, then the next
  word ``>> (64 - k)`` as the high bits) and retries while the value is
  ``>= space``, so a node's ``i``-th draw is its ``i``-th accepted attempt.

A node's draw ``i`` is a pure function of ``(seed, x, i)`` and the label
space, so the table provider keeps the draws of its last seed
(:class:`KeptLabels`) and a later run at that seed replays none of them.

The per-node loop (re-seed one ``random.Random``, discard the earlier
draws, draw) is the fallback for what the replay does not cover: batches
under :data:`MIN_BATCH` pairs, label spaces over 64 bits, keys shorter than
four words (``stable_hash < 2**96``, about one node in 2³²) and draws whose
index or rejections run past the attempts computed.  It is the
definition ``tests/test_rng.py`` checks the replay against.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

import numpy as np

from repro.net.rng import absorb, hash_prefix

#: draw indexes a :class:`KeptLabels` keeps: round 0's draw and round 1's
#: first acceptance, all but a handful of a run's draws
KEPT_DRAWS = 2

#: batches smaller than this take the per-node loop: the replay's ~9 000
#: array passes cost ~8 ms whatever the batch, the loop ~9 µs per node, and
#: the two cross near 1 500 nodes
MIN_BATCH = 2048

_N, _M = 624, 397
#: outputs of the first twist that read seeded rows only
_MAX_WORDS = _N - _M
#: attempts computed beyond ``2·i + 1`` for a batch whose largest draw index
#: is ``i``: a label space of ``k`` bits rejects an attempt with probability
#: under 1/2, so ``i + 1`` draws rarely need more
_SPARE_ATTEMPTS = 8


def _init_genrand(seed: int) -> np.ndarray:
    state = [seed]
    for i in range(1, _N):
        prev = state[-1]
        state.append((1812433253 * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF)
    return np.array(state, dtype=np.uint32)


#: the state ``init_by_array`` starts from, one scalar per row
_START = list(_init_genrand(19650218))
_ROW = [np.uint32(i) for i in range(_N)]


def _mix(prev: np.ndarray, factor: int, out: np.ndarray) -> np.ndarray:
    """``(prev ^ (prev >> 30)) * factor`` into ``out`` (uint32, wrapping)."""
    np.right_shift(prev, 30, out=out)
    out ^= prev
    out *= factor
    return out


def first_outputs(keys: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` 32-bit outputs of ``random.Random(key)``, per key.

    ``keys`` is a ``(L, c)`` uint32 array: column ``i`` is one key split into
    its ``L`` little-endian words (row 0 least significant), with ``L`` the
    word count ``Random.seed`` uses for it (``1 <= L < 624``).  Returns the
    ``(count, c)`` uint32 outputs (``count <= 227``), what ``getrandbits(32)``
    returns ``count`` times on each freshly seeded generator.
    """
    length, c = keys.shape
    if not 1 <= count <= _MAX_WORDS or not 1 <= length < _N:
        raise ValueError(f"count must be in [1, {_MAX_WORDS}] and key words in [1, {_N})")
    # the first loop adds key word j plus j
    add = keys + np.arange(length, dtype=np.uint32)[:, None]
    scratch = np.empty(c, dtype=np.uint32)
    # first loop: rows 1..623, then row 1 once more off row 0 = row 623
    prev = np.full(c, _START[0], dtype=np.uint32)
    cur = np.empty(c, dtype=np.uint32)
    for i in range(1, _N):
        _mix(prev, 1664525, scratch)
        scratch ^= _START[i]
        np.add(scratch, add[(i - 1) % length], out=cur)
        if i == 1:
            row1 = cur.copy()
        prev, cur = cur, prev
    row1_again = _mix(prev, 1664525, np.empty(c, dtype=np.uint32))
    row1_again ^= row1
    row1_again += add[(_N - 1) % length]

    # second loop: rows 2..623 off the first loop's rows (recomputed here
    # from its row 1), then row 1 off row 0 = row 623; keep only the rows
    # the outputs read
    low = np.empty((count + 1, c), dtype=np.uint32)  # seeded rows 0..count
    high = np.empty((count, c), dtype=np.uint32)     # seeded rows 397..396+count
    first, first_next = row1, cur  # the first loop's row i - 1
    second, second_next = row1_again.copy(), prev  # the second loop's row i - 1
    for i in range(2, _N):
        _mix(first, 1664525, scratch)
        scratch ^= _START[i]
        np.add(scratch, add[(i - 1) % length], out=first_next)
        first, first_next = first_next, first
        _mix(second, 1566083941, scratch)
        scratch ^= first
        np.subtract(scratch, _ROW[i], out=second_next)
        second, second_next = second_next, second
        if i <= count:
            low[i] = second
        if _M <= i < _M + count:
            high[i - _M] = second
    low[0] = 0x80000000
    _mix(second, 1566083941, scratch)
    scratch ^= row1_again
    np.subtract(scratch, _ROW[1], out=low[1])

    # the first twist, then tempering
    y = low[:-1] & np.uint32(0x80000000)
    y |= low[1:] & np.uint32(0x7FFFFFFF)
    out = high
    out ^= y >> 1
    y &= 1
    y *= np.uint32(0x9908B0DF)
    out ^= y
    out ^= out >> 11
    out ^= (out << 7) & np.uint32(0x9D2C5680)
    out ^= (out << 15) & np.uint32(0xEFC60000)
    out ^= out >> 18
    return out


def _node_key(prefix, x: int) -> bytes:
    """``stable_hash(seed, "node", x)`` as 16 big-endian bytes, off ``prefix``."""
    hasher = prefix.copy()
    absorb(hasher, x)
    return hasher.digest()


def _draw(rng: random.Random, prefix, x: int, index: int, label_space: int) -> int:
    """Draw ``index`` (0-based) of node ``x``'s stream, by re-seeding ``rng``."""
    rng.seed(int.from_bytes(_node_key(prefix, x), "big"))
    for _ in range(index):
        rng.randrange(label_space)
    return rng.randrange(label_space)


class KeptLabels:
    """Labels already drawn, by ``(node, draw index)``, for one seed at a time.

    A node's draw ``i`` depends only on ``(seed, x, i)`` and the label space,
    so a table provider keeps what its runs drew and :func:`draw_labels`
    replays only the pairs it does not have.  Draw indexes below
    :data:`KEPT_DRAWS` are kept, each as ``label + 1`` (0: not drawn yet) in
    an ``n``-entry array: 4 bytes per node while labels fit 32 bits
    (``n² < 2³²``), 8 above that (8 MB per draw index at ``n = 10⁶``), none
    for label spaces over ``2⁶⁴ - 1``.  The arrays are made with the
    provider, ahead of any run's temporaries, and zeroed when a run draws
    at another seed, so a provider shared across node seeds keeps the last.
    """

    def __init__(self, n: int, label_space: int) -> None:
        self.label_space = label_space
        self._seed: Optional[int] = None
        self._levels: List[np.ndarray] = []
        if label_space < 1 << 64:
            dtype = np.uint32 if label_space < 1 << 32 else np.uint64
            self._levels = [np.zeros(n, dtype=dtype) for _ in range(KEPT_DRAWS)]

    def find(self, seed: int, label_space: int, nodes: np.ndarray, index: np.ndarray):
        """``(labels, known)`` for every ``(node, index)`` pair; ``None`` if none is kept."""
        if seed != self._seed or label_space != self.label_space:
            return None
        labels = np.zeros(len(nodes), dtype=np.uint64)
        for level, row in enumerate(self._levels):
            at = np.nonzero(index == level)[0]
            labels[at] = row[nodes[at]]
        known = labels > 0
        labels -= known
        return labels, known

    def keep(self, seed: int, label_space: int, nodes: np.ndarray, index: np.ndarray,
             labels: List[int]) -> None:
        """Keep the drawn ``labels`` of the ``(node, index)`` pairs."""
        if label_space != self.label_space or not self._levels or len(nodes) == 0:
            return
        if seed != self._seed:
            self._seed = seed
            for level in self._levels:
                level.fill(0)
        values = np.asarray(labels, dtype=np.uint64) + np.uint64(1)
        for level, row in enumerate(self._levels):
            at = np.nonzero(index == level)[0]
            row[nodes[at]] = values[at]


def draw_labels(
    seed: int,
    xs: Sequence[int],
    draw_count: np.ndarray,
    label_space: int,
    budget_bytes: Optional[int] = None,
    kept: Optional[KeptLabels] = None,
) -> List[int]:
    """Each node's next private label draw, in order, replayed from its counter.

    Bit-identical to holding every node's ``derive_rng(seed, "node", x)``
    stream open: node ``x``'s label is draw number ``draw_count[x]`` of that
    stream (every draw in both backends is exactly one ``randrange``), and
    the counter advances as it goes, so a node listed twice gets its next
    two draws.  Pairs ``kept`` already holds are read from it; the others
    are replayed and kept.  A replay of at least :data:`MIN_BATCH` pairs
    runs in numpy (module docstring), its temporaries cut into node chunks
    of at most ``budget_bytes`` (one chunk of any size when ``None``).
    """
    nodes = np.asarray(xs, dtype=np.int64)
    unique, inverse, counts = np.unique(nodes, return_inverse=True, return_counts=True)
    # a node's occurrences take its next draws in batch order
    order = np.argsort(inverse, kind="stable")
    rank = np.empty(len(nodes), dtype=np.int64)
    rank[order] = np.arange(len(nodes)) - np.repeat(np.cumsum(counts) - counts, counts)
    index = draw_count[nodes].astype(np.int64) + rank
    draw_count[unique] += counts.astype(draw_count.dtype)

    found = None if kept is None else kept.find(seed, label_space, nodes, index)
    if found is None:
        drawn = _replay(seed, nodes, index, label_space, budget_bytes)
        if kept is not None:
            kept.keep(seed, label_space, nodes, index, drawn)
        return drawn
    labels, known = found
    if known.all():
        return labels.tolist()
    todo = np.nonzero(~known)[0]
    drawn = _replay(seed, nodes[todo], index[todo], label_space, budget_bytes)
    kept.keep(seed, label_space, nodes[todo], index[todo], drawn)
    result = labels.tolist()
    for i, label in zip(todo.tolist(), drawn):
        result[i] = label
    return result


def _replay(
    seed: int,
    nodes: np.ndarray,
    index: np.ndarray,
    label_space: int,
    budget_bytes: Optional[int],
) -> List[int]:
    """Draw ``index[i]`` of node ``nodes[i]``'s stream, for every ``i``."""
    prefix = hash_prefix(seed, "node")
    rng = random.Random()
    bits = label_space.bit_length()
    if len(nodes) < MIN_BATCH or label_space < 1 or bits > 64:
        return [
            _draw(rng, prefix, x, i, label_space)
            for x, i in zip(nodes.tolist(), index.tolist())
        ]

    unique, inverse = np.unique(nodes, return_inverse=True)
    order = np.argsort(inverse, kind="stable")  # occurrences grouped by node

    # Random.seed keys: the digest's big-endian words, least significant first
    digests = b"".join([_node_key(prefix, x) for x in unique.tolist()])
    words_be = np.frombuffer(digests, dtype=">u4").reshape(-1, 4)
    keys = np.ascontiguousarray(words_be[:, ::-1].T, dtype=np.uint32)
    full_key = words_be[:, 0] != 0

    per_attempt = 1 if bits <= 32 else 2
    attempts = min(_MAX_WORDS // per_attempt, 2 * int(index.max()) + 1 + _SPARE_ATTEMPTS)
    words = attempts * per_attempt
    # live uint32 per node: the kept rows and the twist's temporaries (about
    # four per word) and the chain's vectors; equal chunks, since every chunk
    # pays the chain's ~9 000 array passes
    chunk = len(unique)
    if budget_bytes is not None:
        chunk = max(256, budget_bytes // (4 * (4 * words + 16)))
    chunks = -(-len(unique) // chunk)
    chunk = -(-len(unique) // chunks)

    labels = np.zeros(len(nodes), dtype=np.uint64)
    resolved = np.zeros(len(nodes), dtype=bool)
    grouped = inverse[order]
    for lo in range(0, len(unique), chunk):
        hi = min(len(unique), lo + chunk)
        out = first_outputs(keys[:, lo:hi], words)
        if per_attempt == 1:
            values = out >> np.uint32(32 - bits)
        else:
            values = out[0::2].astype(np.uint64)
            values |= (out[1::2] >> np.uint32(64 - bits)).astype(np.uint64) << np.uint64(32)
        del out
        accepted = np.cumsum(values < label_space, axis=0, dtype=np.uint8)
        a, b = np.searchsorted(grouped, [lo, hi])
        occ = order[a:b]
        col = grouped[a:b] - lo
        # the draw is the attempt where the accepted count first passes index
        pos = (accepted[:, col] <= index[occ]).sum(axis=0)
        hit = (pos < attempts) & full_key[lo:hi][col]
        labels[occ[hit]] = values[pos[hit], col[hit]]
        resolved[occ[hit]] = True

    result = labels.tolist()
    for i in np.nonzero(~resolved)[0].tolist():
        result[i] = _draw(rng, prefix, int(nodes[i]), int(index[i]), label_space)
    return result
