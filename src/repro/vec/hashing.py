"""Batched sampler draws, bit-identical to :func:`repro.net.rng.stable_hash`.

The samplers draw quorum members as ``stable_hash(seed, name, s, x, counter)
% n`` — a 16-byte blake2b digest over length-prefixed ``repr`` encodings.
This module makes those draws for whole tables at once with the very calls
the samplers make: one ``hashlib.blake2b`` per row over the key prefix and
the row's parts, copied and finished once per counter (the
:func:`repro.net.rng.hash_prefix` idiom).  Bit-identity with the message
kernel — the guarantee the whole vectorized backend inherits — therefore
holds by construction; only the ``% n`` reduction and the first-distinct
selection are numpy.  That loop costs ~0.4 µs per draw, a third of what
blake2b rounds written as numpy lane arithmetic cost, so there is no
vectorized compression here to keep in step with RFC 7693.
``tests/test_vec_hashing.py`` checks the draws against the Python samplers.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence

import numpy as np


def encode_parts(*parts: object) -> bytes:
    """The canonical length-prefixed encoding of :func:`repro.net.rng.absorb`."""
    out = bytearray()
    for part in parts:
        encoded = repr(part).encode("utf-8")
        out += len(encoded).to_bytes(4, "big")
        out += encoded
    return bytes(out)


def batch_digest_mod(
    prefix: bytes, columns: Sequence[np.ndarray], n: int, draws: Optional[int] = None
) -> np.ndarray:
    """``stable_hash(*prefix_parts, c0[i], c1[i], ...) % n`` for every row ``i``.

    ``prefix`` is the already-encoded constant part list (via
    :func:`encode_parts`); ``columns`` are equal-length integer arrays, each
    absorbed as one further part per row.  With ``draws`` every row is
    hashed once and finished with ``counter = 0 .. draws - 1`` as the last
    part, and the result is the ``(rows, draws)`` matrix of those draws.
    """
    # without draws the one empty suffix finishes each row's own digest
    suffixes = [b""] if draws is None else [encode_parts(c) for c in range(draws)]
    digests: List[bytes] = []
    append = digests.append
    for row in zip(*(np.asarray(c, dtype=np.int64).tolist() for c in columns)):
        base = hashlib.blake2b(prefix + encode_parts(*row), digest_size=16)
        for suffix in suffixes:
            hasher = base.copy()
            hasher.update(suffix)
            append(hasher.digest())
    # big-endian digest value = hi·2^64 + lo, reduced without leaving int64
    words = np.frombuffer(b"".join(digests), dtype=">u8").reshape(-1, 2)
    hi = (words[:, 0] % np.uint64(n)).astype(np.int64)
    lo = (words[:, 1] % np.uint64(n)).astype(np.int64)
    values = (hi * ((1 << 64) % n) + lo) % n
    return values if draws is None else values.reshape(-1, draws)


def _py_first_distinct(prefix: bytes, parts: Sequence[int], size: int, n: int) -> List[int]:
    """The samplers' counter loop for one row, drawing until ``size`` are distinct."""
    base = hashlib.blake2b(digest_size=16)
    base.update(prefix)
    base.update(encode_parts(*parts))
    members: List[int] = []
    seen = set()
    counter = 0
    while len(members) < size:
        hasher = base.copy()
        hasher.update(encode_parts(counter))
        candidate = int.from_bytes(hasher.digest(), "big") % n
        counter += 1
        if candidate not in seen:
            seen.add(candidate)
            members.append(candidate)
    return sorted(members)


def first_distinct_rows(
    prefix: bytes,
    columns: Sequence[np.ndarray],
    size: int,
    n: int,
    extra_draws: int = 4,
    dtype=np.int64,
) -> np.ndarray:
    """Sorted first-``size``-distinct draws per row — the samplers' member loop.

    For each row ``i`` the draw sequence is ``stable_hash(*prefix, *cols[i],
    counter) % n`` for ``counter = 0, 1, ...``; the row's members are the
    first ``size`` distinct values, returned sorted (the samplers' canonical
    representation).  ``size + extra_draws`` counters are hashed per row;
    the rare row with more hash collisions than that is resolved by
    :func:`_py_first_distinct`.
    """
    columns = [np.asarray(c, dtype=np.int64) for c in columns]
    rows = len(columns[0])
    # members are < n, so callers can ask for a narrow output dtype directly
    # instead of paying for an int64 matrix plus a cast copy
    out = np.empty((rows, size), dtype=dtype)
    draws = size + extra_draws
    # chunk so the list of digests (~64 bytes per draw as Python objects)
    # stays a few MB, whatever the table size
    row_chunk = max(1, (32 << 10) // draws)
    for start in range(0, rows, row_chunk):
        stop = min(rows, start + row_chunk)
        span = stop - start
        values = batch_digest_mod(prefix, [c[start:stop] for c in columns], n, draws)
        order = np.argsort(values, axis=1, kind="stable")
        ranked = np.take_along_axis(values, order, axis=1)
        dup_sorted = np.zeros((span, draws), dtype=bool)
        dup_sorted[:, 1:] = ranked[:, 1:] == ranked[:, :-1]
        duplicate = np.empty_like(dup_sorted)
        np.put_along_axis(duplicate, order, dup_sorted, axis=1)
        distinct_rank = np.cumsum(~duplicate, axis=1)
        keep = ~duplicate & (distinct_rank <= size)
        resolved = keep.sum(axis=1) == size
        if resolved.any():
            picked = values[resolved][keep[resolved]].reshape(-1, size)
            out[start:stop][resolved] = np.sort(picked, axis=1)
        for i in np.nonzero(~resolved)[0]:
            parts = [int(c[start + i]) for c in columns]
            out[start + i] = _py_first_distinct(prefix, parts, size, n)
    return out
