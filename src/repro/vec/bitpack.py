"""Bit-packed array storage for the vectorized backend.

Two packed layouts back the ``n = 10⁶`` memory contract (ARCHITECTURE.md
"vec memory model"):

* **index rows** — a ``(rows, d)`` matrix of member ids in ``[0, n)`` is
  stored at ``b = ceil(log2 n)`` bits per id via :func:`numpy.packbits`
  (big-endian bit order), ~3× smaller than the int64 rows the engine used
  to hold and ~1.6× smaller than int32.  Packing is lossless, so the
  unpacked rows are bit-for-bit the samplers' draws.  :func:`unpack_rows`
  decodes by byte gathers: each value spans at most ``(7 + b + 7) // 8``
  bytes at a fixed offset per column, so a few whole-byte passes into a
  uint32 accumulator (uint64 above 25 bits) and one shift and mask recover
  every column at once — no per-bit pass and no bit matrix;
* **boolean matrices** (:class:`BitMatrix`) — per-(row, member) flags such
  as *polled* / *answered* at one bit per cell, 8× smaller than ``bool``.

Both unpack in chunks sized by the engine's memory budget, never as whole
tables.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np


def bits_for(n: int) -> int:
    """Bits needed to store a value in ``[0, n)`` (at least 1)."""
    return max(1, int(n - 1).bit_length())


def packed_width(count: int, bits: int) -> int:
    """Bytes per packed row of ``count`` values at ``bits`` bits each."""
    return (count * bits + 7) // 8


def pack_rows(values: np.ndarray, bits: int) -> np.ndarray:
    """Pack a ``(rows, d)`` non-negative integer matrix at ``bits`` bits/value."""
    rows, d = values.shape
    # one uint8 bit plane per value bit — a broadcast shift over all bits at
    # once would materialise a (rows, d, bits) matrix at the *input* width
    bit_matrix = np.empty((rows, d, bits), dtype=np.uint8)
    for j in range(bits):  # most-significant bit first
        bit_matrix[:, :, j] = (values >> (bits - 1 - j)) & 1
    return np.packbits(bit_matrix.reshape(rows, d * bits), axis=1)


#: rows per internal unpack step — keeps the transient accumulator and the
#: gathered byte columns cache-sized (~0.7 MB at d = 41) however many rows
#: are asked for; 2¹⁵-row steps decoded 117 000 × 41 rows 2.2–2.7× slower
#: (2-core Xeon)
_UNPACK_STEP = 1 << 12


@functools.lru_cache(maxsize=None)
def _gather_plan(d: int, bits: int) -> Tuple[Tuple[np.ndarray, ...], np.ndarray, int]:
    """Byte columns, right shifts and mask that decode ``d`` values of ``bits`` bits.

    Value ``i`` starts at bit ``i·bits`` of the row and so spans at most
    ``(7 + bits + 7) // 8`` bytes from byte ``i·bits // 8``.  Gathering that
    many bytes most-significant first leaves the value at a fixed right
    shift; byte indices past the row end are clipped to its last byte, whose
    duplicate copies land below the shift and are discarded.
    """
    span = (7 + bits + 7) // 8
    acc_type = np.uint32 if span <= 4 else np.uint64
    start = np.arange(d, dtype=np.int64) * bits
    last = packed_width(d, bits) - 1
    columns = tuple(np.minimum(start // 8 + t, last) for t in range(span))
    shifts = (8 * span - start % 8 - bits).astype(acc_type)
    return columns, shifts, (1 << bits) - 1


def unpack_rows(packed: np.ndarray, d: int, bits: int, dtype=np.int32) -> np.ndarray:
    """Invert :func:`pack_rows`: ``(rows, width)`` bytes back to value rows."""
    columns, shifts, mask = _gather_plan(d, bits)
    rows = len(packed)
    out = np.empty((rows, d), dtype=dtype)
    for lo in range(0, rows, _UNPACK_STEP):
        block = packed[lo : lo + _UNPACK_STEP]
        acc = block[:, columns[0]].astype(shifts.dtype)
        for column in columns[1:]:  # one pass per byte, not per bit
            acc <<= 8
            acc |= block[:, column]
        acc >>= shifts
        acc &= mask
        out[lo : lo + len(block)] = acc
    return out


class BitMatrix:
    """A ``(rows, cols)`` boolean matrix stored one bit per cell.

    Supports exactly the access patterns of the engine's per-(row, member)
    flags: extract a row subset as ``bool``, scatter-set individual cells,
    and initialise whole rows to all-true.  Bit order matches
    ``numpy.packbits`` (big-endian within each byte), so trailing pad bits
    of the last byte are ignored by the ``count=cols`` unpack.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int) -> None:
        self.rows = rows
        self.cols = cols
        self.data = np.zeros((rows, (cols + 7) // 8), dtype=np.uint8)

    def set_rows(self, row_slice, values: np.ndarray) -> None:
        """Assign a block of rows from a ``(k, cols)`` boolean matrix."""
        self.data[row_slice] = np.packbits(values, axis=1)

    def fill_rows(self, row_slice) -> None:
        """Set every cell of the selected rows to true."""
        self.data[row_slice] = 0xFF

    def set_true(self, rows_idx: np.ndarray, cols_idx: np.ndarray) -> None:
        """Scatter-set ``[rows_idx[i], cols_idx[i]] = True`` (duplicates fine)."""
        byte = cols_idx >> 3
        bit = (128 >> (cols_idx & 7)).astype(np.uint8)
        np.bitwise_or.at(self.data, (rows_idx, byte), bit)

    def rows_bool(self, rows_idx) -> np.ndarray:
        """The selected rows as a ``(k, cols)`` boolean matrix."""
        return np.unpackbits(self.data[rows_idx], axis=1, count=self.cols).view(bool)
