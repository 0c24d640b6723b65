"""Interleaved Reed-Solomon block codes (paper Section 6 baseline).

The approach of [14, 16, 17, 18]: partition K source packets into
B = K/k blocks of k packets, stretch each block to k + l encoding packets
with a standard erasure code, and transmit one packet per block in turn
("the encoding consists of sequences of B packets, each of which consist
of exactly one packet from each block").

Small k keeps per-block RS decoding fast, but the receiver must fill
*every* block — the coupon-collector effect of Figure 3 — so reception
efficiency decays as blocks multiply, which is exactly what Figures 4-6
measure against Tornado codes.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional, Tuple

import numpy as np

from repro.codes.base import ErasureCode, as_packet_block
from repro.codes.reed_solomon import ReedSolomonCode
from repro.errors import DecodeFailure, ParameterError


class InterleavedCode(ErasureCode):
    """K source packets split into blocks of ``block_k``, RS per block.

    Global encoding-packet numbering groups by block: block ``b`` owns
    indices ``[b * block_n, (b+1) * block_n)``; within a block the first
    ``k_b`` indices are the block's source packets.  Blocks may be uneven
    when ``block_k`` does not divide K; every block gets the same stretch
    factor.

    The paper's interleaved transmission order is a transfer-layer
    schedule: an ``rs`` plan served under ``"interleave"``
    (:mod:`repro.transfer.schedule`).
    """

    def __init__(self, total_k: int, block_k: int, stretch: float = 2.0,
                 construction: str = "cauchy"):
        if total_k <= 0 or block_k <= 0:
            raise ParameterError("packet counts must be positive")
        if block_k > total_k:
            block_k = total_k
        self.total_k = total_k
        self.block_k = block_k
        self.stretch = float(stretch)
        self.num_blocks = -(-total_k // block_k)
        # Per-block source sizes: as even as possible.
        base, extra = divmod(total_k, self.num_blocks)
        self.block_sizes = [base + (1 if b < extra else 0)
                            for b in range(self.num_blocks)]
        self.block_codes = [
            ReedSolomonCode(kb, max(kb + 1, int(round(stretch * kb))),
                            construction=construction)
            for kb in self.block_sizes
        ]
        self.block_ns = [c.n for c in self.block_codes]
        self._block_offsets = np.concatenate(
            [[0], np.cumsum(self.block_ns)]).astype(np.int64)
        self._source_offsets = np.concatenate(
            [[0], np.cumsum(self.block_sizes)]).astype(np.int64)
        self.k = total_k
        self.n = int(self._block_offsets[-1])

    # -- index bookkeeping ------------------------------------------------------

    def block_of(self, index: int) -> Tuple[int, int]:
        """Map a global encoding index to (block, index-within-block)."""
        if not 0 <= index < self.n:
            raise ParameterError(f"index {index} outside encoding")
        b = int(np.searchsorted(self._block_offsets, index, side="right") - 1)
        return b, index - int(self._block_offsets[b])

    def global_index(self, block: int, within: int) -> int:
        """Inverse of :meth:`block_of`."""
        if not 0 <= block < self.num_blocks:
            raise ParameterError(f"no block {block}")
        if not 0 <= within < self.block_ns[block]:
            raise ParameterError(
                f"block {block} has no packet {within}")
        return int(self._block_offsets[block]) + within

    # -- coding ------------------------------------------------------------------

    def encode(self, source: np.ndarray) -> np.ndarray:
        """Encode each block independently; output in block-major order."""
        source = as_packet_block(source, self.total_k,
                                 dtype=self.block_codes[0].field.dtype)
        chunks = []
        for b, code in enumerate(self.block_codes):
            lo = int(self._source_offsets[b])
            hi = int(self._source_offsets[b + 1])
            chunks.append(code.encode(source[lo:hi]))
        return np.concatenate(chunks, axis=0)

    def decode(self, received: Mapping[int, np.ndarray]) -> np.ndarray:
        """Decode every block; fails if any block lacks its quorum."""
        per_block: list = [dict() for _ in range(self.num_blocks)]
        for index, payload in received.items():
            b, within = self.block_of(int(index))
            per_block[b][within] = payload
        outputs = []
        for b, code in enumerate(self.block_codes):
            if len(per_block[b]) < code.k:
                raise DecodeFailure(
                    f"block {b} received {len(per_block[b])} of {code.k} "
                    "packets needed", missing=code.k - len(per_block[b]))
            outputs.append(code.decode(per_block[b]))
        return np.concatenate(outputs, axis=0)

    def is_decodable(self, indices: Iterable[int]) -> bool:
        """Every block must hold at least its k distinct packets."""
        counts = np.zeros(self.num_blocks, dtype=np.int64)
        seen = set()
        for index in indices:
            i = int(index)
            if i in seen:
                continue
            seen.add(i)
            b, _ = self.block_of(i)
            counts[b] += 1
        return bool(np.all(counts >= np.asarray(self.block_sizes)))

    def packets_to_decode(self, arrival_order) -> int:
        """Exact prefix length: last block to reach its quorum decides."""
        counts = np.zeros(self.num_blocks, dtype=np.int64)
        need = np.asarray(self.block_sizes, dtype=np.int64)
        remaining = int(np.sum(need))
        seen = set()
        for pos, index in enumerate(arrival_order):
            i = int(index)
            if i in seen:
                continue
            seen.add(i)
            b, _ = self.block_of(i)
            if counts[b] < need[b]:
                counts[b] += 1
                remaining -= 1
                if remaining == 0:
                    return pos + 1
        raise DecodeFailure("arrival order never becomes decodable",
                            missing=remaining)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"InterleavedCode(K={self.total_k}, block_k={self.block_k}, "
                f"blocks={self.num_blocks}, n={self.n})")
