"""Partitioning one large object into independently coded blocks.

The paper's subject is *bulk* data — gigabyte objects pushed to millions
of receivers — but a single erasure code over the whole object would
make decoder state (and, for quadratic-cost codes, decode time) scale
with the file.  Production fountain systems therefore segment the
object: a :class:`BlockPlan` cuts the file into fixed-size blocks of
``block_packets`` packets each (the tail block is smaller when the file
does not divide evenly), and every block gets its own small code whose
decode working set stays in cache.  Cross-block *scheduling* — how a
server stripes packets over the blocks — lives in
:mod:`repro.transfer.schedule`.

All byte/packet accounting is here: block byte offsets and lengths are
exact, and the final packet of the tail block is zero-padded up to
``packet_size``.  A receiver writes each decoded block back at its byte
range (:class:`~repro.transfer.client.TransferClient`), which strips that
padding, so the reconstructed object is byte-identical to the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

import numpy as np

from repro.codes.base import bytes_to_packets
from repro.errors import ParameterError


@dataclass(frozen=True)
class BlockSpec:
    """One block of the segmented object: its bytes and packet count."""

    block: int
    byte_offset: int
    byte_length: int
    k: int

    @property
    def byte_end(self) -> int:
        return self.byte_offset + self.byte_length


class BlockPlan:
    """How an object of ``file_size`` bytes maps onto coded blocks.

    Parameters
    ----------
    file_size:
        Exact object length in bytes (must be positive).
    packet_size:
        Payload bytes per packet.
    block_packets:
        Source packets per block (the per-block ``k``).  Every block has
        exactly this many packets except possibly the last, which takes
        the remainder — the *uneven tail*.

    A block's :class:`BlockSpec` is worked out from its index when asked
    for, so a plan costs the same at one block or at a million.
    """

    def __init__(self, file_size: int, packet_size: int, block_packets: int):
        if file_size <= 0:
            raise ParameterError("cannot plan a transfer of 0 bytes")
        if packet_size <= 0:
            raise ParameterError("packet_size must be positive")
        if block_packets <= 0:
            raise ParameterError("block_packets must be positive")
        self.file_size = int(file_size)
        self.packet_size = int(packet_size)
        self.block_packets = int(block_packets)
        self.total_packets = -(-self.file_size // self.packet_size)
        self.num_blocks = -(-self.file_size
                            // (self.block_packets * self.packet_size))

    @classmethod
    def from_block_size(cls, file_size: int, packet_size: int,
                        block_size: int) -> "BlockPlan":
        """Plan with blocks of (at most) ``block_size`` bytes."""
        if block_size < packet_size:
            raise ParameterError(
                f"block_size {block_size} smaller than one packet "
                f"({packet_size} B)")
        return cls(file_size, packet_size, block_size // packet_size)

    # -- lookups ---------------------------------------------------------------

    @cached_property
    def block_ks(self) -> List[int]:
        """Per-block source packet counts (the schedule weights), worked
        out on first use: every serve and reweight reads them."""
        return [self.spec(block).k for block in range(self.num_blocks)]

    def spec(self, block: int) -> BlockSpec:
        if not 0 <= block < self.num_blocks:
            raise ParameterError(
                f"no block {block} in a {self.num_blocks}-block plan")
        offset, length = self._extent(block)
        return BlockSpec(block, offset, length, -(-length // self.packet_size))

    def _extent(self, block: int) -> Tuple[int, int]:
        """Block ``block``'s byte offset and length: ``block_packets``
        packets each, the tail taking what is left."""
        block_bytes = self.block_packets * self.packet_size
        offset = block * block_bytes
        return offset, min(block_bytes, self.file_size - offset)

    # -- byte <-> packet-block conversion --------------------------------------

    def slice_bytes(self, data: bytes, block: int) -> bytes:
        """The exact byte range of ``block`` within the object."""
        spec = self.spec(block)
        if len(data) != self.file_size:
            raise ParameterError(
                f"object is {len(data)} bytes, plan covers {self.file_size}")
        return data[spec.byte_offset:spec.byte_end]

    def source_block(self, data: bytes, block: int) -> np.ndarray:
        """The ``(k, packet_size)`` source array of ``block`` (tail padded)."""
        return bytes_to_packets(self.slice_bytes(data, block),
                                self.packet_size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tail = self.spec(self.num_blocks - 1).k
        tail_note = "" if tail == self.block_packets else f", tail_k={tail}"
        return (f"BlockPlan(file_size={self.file_size}, "
                f"packet_size={self.packet_size}, "
                f"blocks={self.num_blocks}x{self.block_packets}{tail_note})")
