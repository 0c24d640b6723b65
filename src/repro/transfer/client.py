"""Receiving a block-segmented transfer: route, decode, reassemble.

The one receiver of packet ids (a single-block stream is a one-block
transfer): a :class:`TransferClient` keeps one
:class:`~repro.codes.registry.IncrementalDecoder` per block, built over
the block's code on its first packet, routes each arriving packet to
its block by the header's block id and feeds it through
:func:`~repro.codes.registry.feed`, tracks per-block completion, and
holds the decoded object once: the moment a block decodes, its exact
byte range (the tail packet's zero padding stripped) is written into one
``file_size`` object buffer — allocated at the first completion, never
from a manifest alone — and the block's decoder is dropped; only its
reception counters at completion stay.  A structural client (no
payloads) drops its decoders the same way and has no buffer.

Packets for already-complete blocks are counted (they are real
receptions the paper's efficiency metrics must see) but do no decoding
work, so late duplicates and carousel wrap-arounds stay cheap.
"""

from __future__ import annotations

from typing import List, Optional, cast

import numpy as np

from repro.codes.registry import IncrementalDecoder, feed, incremental_decoder
from repro.errors import DecodeFailure, ProtocolError
from repro.fountain.metrics import ReceptionStats
from repro.fountain.packets import SERIAL_MODULUS, EncodingPacket
from repro.transfer.codec import ObjectCodec

#: sentinel for "use the plan's packet size" (None means structural).
_PLAN_PAYLOAD = object()


class TransferClient:
    """Consumes a striped packet stream until the whole object decodes.

    Parameters
    ----------
    codec:
        The per-block code binding shared with the sender (rebuilt from
        the manifest on the receiving side).
    payload_size:
        Payload length handed to the per-block decoders.  Defaults to
        the plan's packet size; pass ``None`` explicitly for structural
        (index-only) simulation runs.
    """

    def __init__(self, codec: ObjectCodec,
                 payload_size: object = _PLAN_PAYLOAD):
        if payload_size is _PLAN_PAYLOAD:
            payload_size = codec.plan.packet_size
        self.codec = codec
        self.payload_size = cast(Optional[int], payload_size)
        #: per block, its decoder while it decodes (None before its first
        #: packet and once it has completed).
        self._decoders: List[Optional[IncrementalDecoder]] = \
            [None] * codec.num_blocks
        #: per completed block, its reception counters at completion.
        self._final: List[Optional[ReceptionStats]] = \
            [None] * codec.num_blocks
        #: the object's bytes, written block by block as blocks complete
        #: (None until the first block with payloads completes).
        self._object: Optional[np.ndarray] = None
        self._incomplete = set(range(codec.num_blocks))
        #: per block, True once it has decoded: the set's complement as
        #: a mask a window of block ids can index.
        self._decoded_mask = np.zeros(codec.num_blocks, dtype=bool)
        self.total_received = 0
        #: per block, the exclusive bound of a packet index (the code's
        #: ``n``; any header value for a rateless one); -1 until a
        #: packet first names the block — codes build lazily.
        self._index_bounds = np.full(codec.num_blocks, -1, dtype=np.int64)

    # -- feeding ---------------------------------------------------------------

    def receive(self, packet: EncodingPacket) -> bool:
        """Ingest one packet; returns True once every block is decodable."""
        return self.receive_index(packet.block, packet.index, packet.payload)

    def _open_decoder(self, block: int) -> Optional[IncrementalDecoder]:
        """The block's decoder while it still wants packets (built on
        the first, None once it has decoded); raises for a block id the
        plan does not have."""
        if not 0 <= block < self.codec.num_blocks:
            raise ProtocolError(
                f"packet names block {block}, transfer has "
                f"{self.codec.num_blocks} blocks")
        if block not in self._incomplete:
            return None
        decoder = self._decoders[block]
        if decoder is None:
            if self.payload_size is not None:
                self.codec.check_wire_dtype(block)
            decoder = incremental_decoder(self.codec.code_for(block),
                                          payload_size=self.payload_size)
            self._decoders[block] = decoder
        return decoder

    def receive_index(self, block: int, index: int,
                      payload: Optional[np.ndarray] = None) -> bool:
        """Ingest by raw (block, index) pair: :meth:`receive_many` of one
        row."""
        return self.receive_many(block, (index,), None if payload is None
                                 else np.asarray(payload)[np.newaxis])

    def receive_many(self, block: int, indices: np.ndarray,
                     payloads: Optional[np.ndarray] = None) -> bool:
        """Ingest packets of one block, in arrival order.

        Every packet counts toward the transfer's reception total (they
        were all delivered); the block's decoder sees only the prefix up
        to its completion (:func:`~repro.codes.registry.feed`), exactly
        as sequential feeding would route.
        """
        decoder = self._open_decoder(block)
        if decoder is not None:
            feed(decoder, indices, payloads)
            if decoder.is_complete:
                self._finish(block, decoder)
        self.total_received += len(indices)
        return self.is_complete

    def _finish(self, block: int, decoder: IncrementalDecoder) -> None:
        """Write a just-completed block into the object buffer and drop
        its decoder; its counters stay."""
        self._incomplete.discard(block)
        self._decoded_mask[block] = True
        self._final[block] = self._stats(block, decoder)
        self._decoders[block] = None
        if self.payload_size is None:
            return      # structural: nothing decoded, nothing to keep
        spec = self.codec.plan.spec(block)
        if self._object is None:
            self._object = np.empty(self.codec.plan.file_size,
                                    dtype=np.uint8)
        rows = np.ascontiguousarray(decoder.source_data()).view(np.uint8)
        self._object[spec.byte_offset:spec.byte_end] = \
            rows.reshape(-1)[:spec.byte_length]

    def receive_window(self, blocks: np.ndarray, indices: np.ndarray,
                       payloads: Optional[np.ndarray] = None) -> int:
        """Ingest an arrival-ordered run of packets spanning blocks.

        The batch twin of one :meth:`receive_index` call per packet, and
        counter-exact against it: the run is taken in chunks no longer
        than :attr:`min_additional`, so the transfer can only complete
        on a chunk's final packet.  A chunk's packets for blocks that
        have already decoded are counted in one step; the rest reach
        the decoders one :meth:`receive_many` per block, in ascending
        block order — one stable sort and one gather split them,
        arrival order kept within a block.  A block id the plan does
        not have raises :class:`~repro.errors.ProtocolError` before
        anything is taken.  Returns how many packets were consumed — the
        rest arrived after completion and are left unread, as the
        sequential loop would leave them.
        """
        outside = (blocks < 0) | (blocks >= self.num_blocks)
        if outside.any():
            raise ProtocolError(
                f"packet names block {int(blocks[outside][0])}, transfer "
                f"has {self.num_blocks} blocks")
        pos, total = 0, len(blocks)
        while pos < total and self._incomplete:
            stop = pos + min(self.min_additional, total - pos)
            live = pos + np.flatnonzero(~self._decoded_mask[blocks[pos:stop]])
            self.total_received += stop - pos - live.size
            pos = stop
            if not live.size:
                continue
            order = live[np.argsort(blocks[live], kind="stable")]
            chunk, ids = blocks[order], indices[order]
            rows = None if payloads is None else payloads[order]
            bounds = [0, *(np.flatnonzero(chunk[1:] != chunk[:-1]) + 1)
                      .tolist(), len(chunk)]
            for begin, end in zip(bounds, bounds[1:]):
                self.receive_many(
                    int(chunk[begin]), ids[begin:end],
                    None if rows is None else rows[begin:end])
        return pos

    def names_packet(self, blocks: np.ndarray,
                     indices: np.ndarray) -> np.ndarray:
        """Mask of the ``(block, index)`` header pairs that name a packet.

        The check for ids read off the wire, where a hostile or foreign
        record is an erasure rather than an error: False for a block id
        the plan does not have or an index at or beyond a fixed-rate
        block's ``n``.  The typed feeding methods keep raising for the
        same mistakes in a caller's own arguments.
        """
        known = blocks < self.num_blocks
        bounds = self._index_bounds[blocks * known]
        for block in np.unique(blocks[known & (bounds < 0)]).tolist():
            n = self.codec.code_for(block).n
            self._index_bounds[block] = SERIAL_MODULUS if n is None else n
            bounds[blocks == block] = self._index_bounds[block]
        return known & (indices < bounds)

    def block_min_additional(self, block: int) -> int:
        """Lower bound on further packets ``block`` needs to complete.

        Zero once the block has decoded; before its first packet the
        bound is the block's ``k``.
        """
        if block not in self._incomplete:
            return 0
        decoder = self._decoders[block]
        if decoder is None:
            return self.codec.plan.spec(block).k
        return decoder.min_additional_packets

    @property
    def min_additional(self) -> int:
        """Lower bound on further packets the whole transfer needs.

        Every incomplete block needs at least its own bound and a
        packet serves one block, so the bounds add.  Batch drivers size
        delivery windows by it: a window this long provably cannot
        complete the transfer before its final packet.
        """
        return sum(self.block_min_additional(block)
                   for block in self._incomplete)

    # -- progress --------------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        return self.codec.num_blocks

    @property
    def is_complete(self) -> bool:
        return not self._incomplete

    @property
    def blocks_complete(self) -> int:
        return self.codec.num_blocks - len(self._incomplete)

    @property
    def incomplete_blocks(self) -> List[int]:
        """Block ids still waiting for packets, ascending."""
        return sorted(self._incomplete)

    @property
    def bytes_complete(self) -> int:
        """Exact object bytes covered by the blocks decoded so far."""
        return sum(self.codec.plan.spec(block).byte_length
                   for block in np.flatnonzero(self._decoded_mask).tolist())

    @property
    def progress(self) -> float:
        """Fraction of the object's bytes whose blocks have decoded."""
        return self.bytes_complete / self.codec.plan.file_size

    # -- results ---------------------------------------------------------------

    def block_stats(self, block: int) -> Optional[ReceptionStats]:
        """Reception counters of one block (None before its first packet;
        the counters at completion once it has decoded)."""
        decoder = self._decoders[block]
        return (self._final[block] if decoder is None
                else self._stats(block, decoder))

    def _stats(self, block: int,
               decoder: IncrementalDecoder) -> ReceptionStats:
        return ReceptionStats.of_decoder(self.codec.plan.spec(block).k,
                                         decoder)

    def stats(self) -> ReceptionStats:
        """Aggregate reception counters across all blocks."""
        return ReceptionStats(
            source_packets=self.codec.total_k,
            distinct_received=sum(
                stats.distinct_received
                for stats in map(self.block_stats, range(self.num_blocks))
                if stats is not None),
            total_received=self.total_received,
        )

    def block_data(self, block: int) -> np.ndarray:
        """One decoded block's ``(k, P)`` source array, read from the
        object buffer (the tail packet zero-padded)."""
        spec = self.codec.plan.spec(block)
        if block in self._incomplete:
            raise DecodeFailure(
                f"block {block} has not received enough packets")
        rows = np.zeros((spec.k, self.codec.plan.packet_size),
                        dtype=np.uint8)
        rows.reshape(-1)[:spec.byte_length] = \
            self._decoded()[spec.byte_offset:spec.byte_end]
        return rows

    def object_data(self) -> bytes:
        """The reconstructed object, byte-identical to the sender's input:
        one ``bytes`` copy of the object buffer.

        Raises :class:`~repro.errors.DecodeFailure` while any block is
        still incomplete (or on a structural client, which decoded no
        payloads).
        """
        if not self.is_complete:
            raise DecodeFailure(
                f"{len(self._incomplete)} of {self.codec.num_blocks} "
                f"blocks still incomplete: {self.incomplete_blocks[:8]}")
        return self._decoded().tobytes()

    def _decoded(self) -> np.ndarray:
        """The object buffer; raises on a structural client."""
        if self._object is None:
            raise DecodeFailure(
                "structural client: no payloads were decoded")
        return self._object

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TransferClient(blocks={self.blocks_complete}/"
                f"{self.num_blocks}, received={self.total_received})")
