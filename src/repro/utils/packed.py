"""Packed-lane views of byte-packet blocks.

The XOR kernels work on ``(rows, P)`` uint8 blocks.  XORing them eight
bytes at a time through a ``uint64`` view cuts the element count the
ufunc machinery touches by 8x; the catch is that a zero-copy view only
exists when the row width is a whole number of lanes and the block is
C-contiguous.  These helpers centralise that judgement call:

* :func:`pack_rows` / :func:`unpack_rows` — explicit uint8 <-> uint64
  round-trip with zero padding of the tail lane (always safe, copies
  when padding is needed).
* :func:`xor_view` — the zero-copy fast path: a uint64 view when the
  shape allows it, the original uint8 array otherwise.  Callers XOR
  through whatever comes back; the bytes underneath are identical.

Property tests (``tests/test_packed_properties.py``) pin down the
round-trip and the equivalence of lane-packed XOR with byte XOR.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.errors import ParameterError

__all__ = ["LANE_BYTES", "apply_xor_schedule", "pack_rows", "unpack_rows",
           "xor_view"]

#: bytes per packed lane (one uint64 word).
LANE_BYTES = 8


def pack_rows(rows: np.ndarray) -> Tuple[np.ndarray, int]:
    """Pack a ``(r, P)`` uint8 block into ``(r, ceil(P/8))`` uint64 lanes.

    Returns ``(packed, P)`` — the original row width is needed to
    unpack, because the tail lane is zero-padded.  A width that already
    fills whole lanes packs as a zero-copy view when possible.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    if rows.ndim != 2:
        raise ParameterError(f"expected a 2-D block, got shape {rows.shape}")
    r, width = rows.shape
    padded = -(-width // LANE_BYTES) * LANE_BYTES
    if padded != width:
        buf = np.zeros((r, padded), dtype=np.uint8)
        buf[:, :width] = rows
        rows = buf
    elif not rows.flags.c_contiguous:
        rows = np.ascontiguousarray(rows)
    return rows.view(np.uint64), width


def unpack_rows(packed: np.ndarray, width: int) -> np.ndarray:
    """Invert :func:`pack_rows`: uint64 lanes back to ``(r, width)`` uint8."""
    packed = np.asarray(packed, dtype=np.uint64)
    if packed.ndim != 2:
        raise ParameterError(
            f"expected a 2-D packed block, got shape {packed.shape}")
    if not 0 <= width <= packed.shape[1] * LANE_BYTES:
        raise ParameterError(
            f"width {width} does not fit {packed.shape[1]} lanes")
    if not packed.flags.c_contiguous:
        packed = np.ascontiguousarray(packed)
    return packed.view(np.uint8)[:, :width].copy()


def xor_view(block: np.ndarray) -> np.ndarray:
    """A wider zero-copy view of ``block`` for bulk XOR, when one exists.

    Returns a ``(r, P // 8)`` uint64 view when the row width is a whole
    number of lanes and the layout is C-contiguous; otherwise the block
    itself.  Either return is an alias of the same memory, so in-place
    XOR through it mutates ``block``.
    """
    if (block.dtype == np.uint8 and block.ndim == 2
            and block.shape[1] % LANE_BYTES == 0 and block.shape[1]
            and block.flags.c_contiguous):
        return block.view(np.uint64)
    return block


def apply_xor_schedule(arena: np.ndarray,
                       waves: Sequence[Tuple[np.ndarray, np.ndarray,
                                             np.ndarray]]) -> None:
    """Replay a recorded XOR schedule over an ``(rows, P)`` arena in place.

    Each wave is ``(dst, indptr, src)``: row ``dst[j]`` becomes the XOR
    of rows ``src[indptr[j]:indptr[j+1]]``, applied as one gather plus
    one segmented ``bitwise_xor.reduceat`` per wave — through the uint64
    lane view when the width packs.  The schedule recorder guarantees
    every segment is non-empty (zero right-hand sides read a pinned
    all-zero arena row) and that no wave reads a row it also writes, so
    a whole wave is a single batched pass.
    """
    view = xor_view(arena)
    for dst, indptr, src in waves:
        view[dst] = np.bitwise_xor.reduceat(view[src], indptr[:-1], axis=0)
