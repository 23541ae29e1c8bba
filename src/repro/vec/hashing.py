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

A large :func:`first_distinct_rows` call hashes on every usable CPU: its
rows are cut into contiguous blocks of at least :data:`MIN_BLOCK_ROWS`, one
per CPU in ``os.sched_getaffinity(0)``, and one ``os.fork()`` child per
extra block runs the same serial loop into an anonymous shared ``mmap``
while the parent hashes the first block.  Every row is still hashed by the
same ``hashlib`` calls, so the result is bit-identical to the serial loop
whatever the CPU count.  The call stays serial when it has fewer than two
blocks' worth of rows, when only one CPU is usable, inside a
``multiprocessing`` child (a sweep-pool worker already shares the cores),
and whenever the process runs more than one thread (a dist worker's
heartbeat, a service job, any threaded host), since forking a threaded
process is unsafe.  There is no switch: the serial path is the fallback
for those cases, not an option.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import signal
import sys
import threading
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: fewest rows a forked block hashes; below ~4 096 rows the fork and the
#: copy back cost more than the block's share of the hashing saves
MIN_BLOCK_ROWS = 1 << 12


def encode_parts(*parts: object) -> bytes:
    """The canonical length-prefixed encoding of :func:`repro.net.rng.absorb`."""
    out = bytearray()
    for part in parts:
        encoded = repr(part).encode("utf-8")
        out += len(encoded).to_bytes(4, "big")
        out += encoded
    return bytes(out)


def batch_digest_mod(
    prefix: bytes,
    columns: Sequence[np.ndarray],
    n: int,
    draws: Optional[int] = None,
    first: int = 0,
) -> np.ndarray:
    """``stable_hash(*prefix_parts, c0[i], c1[i], ...) % n`` for every row ``i``.

    ``prefix`` is the already-encoded constant part list (via
    :func:`encode_parts`); ``columns`` are equal-length integer arrays, each
    absorbed as one further part per row.  With ``draws`` every row is
    hashed once and finished with ``counter = first .. first + draws - 1``
    as the last part, and the result is the ``(rows, draws)`` matrix of
    those draws.
    """
    # without draws the one empty suffix finishes each row's own digest
    suffixes = [b""] if draws is None else [encode_parts(c) for c in range(first, first + draws)]
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


def _select_first_distinct(values: np.ndarray, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Rows of ``values`` holding ``size`` distinct draws, and those draws sorted.

    Returns ``(resolved, picked)``: a boolean row mask, and for the resolved
    rows the first ``size`` distinct values of each row in sorted order.
    """
    rows, draws = values.shape
    order = np.argsort(values, axis=1, kind="stable")
    ranked = np.take_along_axis(values, order, axis=1)
    dup_sorted = np.zeros((rows, draws), dtype=bool)
    dup_sorted[:, 1:] = ranked[:, 1:] == ranked[:, :-1]
    duplicate = np.empty_like(dup_sorted)
    np.put_along_axis(duplicate, order, dup_sorted, axis=1)
    distinct_rank = np.cumsum(~duplicate, axis=1)
    keep = ~duplicate & (distinct_rank <= size)
    resolved = keep.sum(axis=1) == size
    picked = values[resolved][keep[resolved]].reshape(-1, size)
    return resolved, np.sort(picked, axis=1)


def _fill_rows(
    prefix: bytes,
    columns: Sequence[np.ndarray],
    size: int,
    n: int,
    extra_draws: int,
    out: np.ndarray,
) -> None:
    """The serial member loop: ``out[i]`` = row ``i``'s sorted first-distinct draws.

    Every row hashes ``size`` counters; only a row with a repeat among them
    hashes up to ``extra_draws`` more, and a row still short of ``size``
    distinct draws after those runs the samplers' own loop.
    """
    rows = len(columns[0])
    # chunk so the list of digests (~64 bytes per draw as Python objects)
    # stays a few MB, whatever the table size
    row_chunk = max(1, (32 << 10) // size)
    for start in range(0, rows, row_chunk):
        stop = min(rows, start + row_chunk)
        chunk = [c[start:stop] for c in columns]
        block = out[start:stop]
        values = batch_digest_mod(prefix, chunk, n, size)
        ranked = np.sort(values, axis=1)
        distinct = (ranked[:, 1:] != ranked[:, :-1]).all(axis=1)
        block[distinct] = ranked[distinct]
        redo = np.nonzero(~distinct)[0]
        if len(redo) and extra_draws:
            more = batch_digest_mod(prefix, [c[redo] for c in chunk], n, extra_draws, first=size)
            resolved, picked = _select_first_distinct(np.hstack([values[redo], more]), size)
            block[redo[resolved]] = picked
            redo = redo[~resolved]
        for i in redo:
            block[i] = _py_first_distinct(prefix, [int(c[i]) for c in chunk], size, n)


def _blocks(rows: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` row blocks to hash in parallel; one block = serial."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    count = min(cpus, rows // MIN_BLOCK_ROWS)
    multiprocessing = sys.modules.get("multiprocessing")
    if (
        count < 2
        or threading.active_count() != 1
        or (multiprocessing is not None and multiprocessing.parent_process() is not None)
    ):
        return [(0, rows)]
    step = -(-rows // count)
    return [(lo, min(rows, lo + step)) for lo in range(0, rows, step)]


def _fill_rows_forked(
    prefix: bytes,
    columns: Sequence[np.ndarray],
    size: int,
    n: int,
    extra_draws: int,
    out: np.ndarray,
    blocks: Sequence[Tuple[int, int]],
) -> None:
    """:func:`_fill_rows` with ``blocks[1:]`` hashed by forked children.

    The children write into an anonymous shared mapping sized for their
    rows only; the parent hashes ``blocks[0]`` meanwhile, reaps every child
    and copies their rows in.  A child that fails makes this raise; on any
    error (or interrupt) the children still running are killed first, and
    every child is reaped on every path.
    """
    split = blocks[0][1]  # the children's blocks are out[split:], contiguous
    buffer = mmap.mmap(-1, (len(out) - split) * size * out.itemsize)
    shared = np.frombuffer(buffer, dtype=out.dtype).reshape(-1, size)
    children: List[int] = []
    try:
        for lo, hi in blocks[1:]:
            pid = os.fork()
            if pid == 0:  # pragma: no cover - runs in the child
                code = 1
                try:
                    part = [c[lo:hi] for c in columns]
                    _fill_rows(prefix, part, size, n, extra_draws, shared[lo - split : hi - split])
                    code = 0
                except BaseException:
                    import traceback

                    traceback.print_exc()
                finally:
                    os._exit(code)
            children.append(pid)
        lo, hi = blocks[0]
        _fill_rows(prefix, [c[lo:hi] for c in columns], size, n, extra_draws, out[lo:hi])
        while children:
            pid, status = os.waitpid(children[0], 0)
            children.pop(0)
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                raise RuntimeError(f"hashing child {pid} exited with status {code}")
        out[split:] = shared
    finally:
        # only children not yet reaped are left: after an error or interrupt
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        for pid in children:
            os.waitpid(pid, 0)
        del shared  # the mapping cannot close while a view exports it
        buffer.close()


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
    representation).  ``size`` counters are hashed per row, and up to
    ``extra_draws`` more for a row with a repeat among them; the rare row
    with more hash collisions than that is resolved by
    :func:`_py_first_distinct`.  Large calls hash their row blocks in
    forked children (see the module docstring).
    """
    columns = [np.asarray(c, dtype=np.int64) for c in columns]
    rows = len(columns[0])
    # members are < n, so callers can ask for a narrow output dtype directly
    # instead of paying for an int64 matrix plus a cast copy
    out = np.empty((rows, size), dtype=dtype)
    blocks = _blocks(rows)
    if len(blocks) > 1:
        _fill_rows_forked(prefix, columns, size, n, extra_draws, out, blocks)
    else:
        _fill_rows(prefix, columns, size, n, extra_draws, out)
    return out
