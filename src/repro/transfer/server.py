"""Serving a block-segmented object as one striped packet stream.

A :class:`TransferServer` composes one fountain sub-source per block —
built through the source registry
(:func:`repro.fountain.source.build_packet_source`):
:class:`~repro.fountain.carousel.CarouselServer` for fixed-rate
families, :class:`~repro.fountain.rateless.RatelessServer` for LT — and
pulls packets from them in the order a pluggable cross-block schedule
dictates.  All sub-sources stamp headers through one shared
:class:`~repro.fountain.packets.HeaderSequencer`, so serials are
strictly monotone across the whole striped stream (receivers estimate
loss from serial gaps exactly as on a single-block stream).

Header compatibility: a multi-block stream tags every packet with its
block id via the 16-byte :class:`~repro.fountain.packets.BlockHeader`;
a single-block plan degrades to the legacy 12-byte header, keeping the
wire format byte-identical to the paper's.

Encode once, serve many — and only what is served: fixed-rate blocks
are held as lazy row-on-demand encoders
(:meth:`~repro.codes.base.ErasureCode.block_encoder`), rateless blocks
as their ``(k, P)`` source arrays, and :meth:`TransferServer.fork`
spins up additional independent streams over the *same* cached
objects.  Each encoding row is computed at most once no matter how
many concurrent receivers a transport fans the object out to, and
redundancy rows the carousels never reach are never computed at all.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Deque, Iterator, List, Optional

import numpy as np

from repro.errors import ParameterError
from repro.fountain.packets import (
    BLOCK_HEADER_SIZE,
    HEADER_SIZE,
    EncodingPacket,
)
from repro.fountain.source import (
    PacketSource,
    SequencedPacketSource,
    build_packet_source,
)
from repro.codes.registry import block_seed
from repro.transfer.codec import ObjectCodec
from repro.transfer.schedule import make_schedule, weighted_slots


class TransferServer(SequencedPacketSource):
    """Streams one object's blocks, striped by a cross-block schedule.

    Parameters
    ----------
    codec:
        The per-block code binding (see
        :class:`~repro.transfer.codec.ObjectCodec`).
    data:
        The exact object bytes (must match the plan's ``file_size``).
    schedule:
        Cross-block schedule name — ``"interleave"`` (default) or
        ``"sequential"``; see :mod:`repro.transfer.schedule`.
    seed:
        Transmission seed for the per-block carousel permutations
        (independent of the codec's code-graph seed).
    group:
        Group number stamped into every header.
    """

    def __init__(self, codec: ObjectCodec, data: bytes,
                 schedule: str = "interleave",
                 seed: int = 0, group: int = 0,
                 _payloads: Optional[List] = None):
        super().__init__(group=group)
        if len(data) != codec.plan.file_size:
            raise ParameterError(
                f"object is {len(data)} bytes, codec plans for "
                f"{codec.plan.file_size}")
        self.codec = codec
        self.schedule = schedule
        self.seed = int(seed)
        self._data = data
        if _payloads is None:
            _payloads = self._materialise(codec, data)
        #: per-block payload sources — the encode-once cache every fork
        #: shares: a lazy (n, P) row encoder for fixed-rate codes, the
        #: (k, P) source block for rateless ones.
        self._payloads = _payloads
        multi = codec.num_blocks > 1
        rateless = codec.is_rateless
        self.block_sources: List[PacketSource] = []
        for spec in codec.plan.blocks:
            payload = self._payloads[spec.block]
            self.block_sources.append(build_packet_source(
                codec.code_for(spec.block),
                source=payload if rateless else None,
                encoding=None if rateless else payload,
                seed=block_seed(self.seed, spec.block),
                sequencer=self._sequencer,
                block=spec.block if multi else None))
        self._schedule = make_schedule(schedule, codec.plan.block_ks)
        #: slots :meth:`unwind` took back, re-emitted before the schedule
        #: moves on.
        self._unsent: Deque[int] = deque()
        self._slots = self._slot_stream()
        self._streams = [source.packets() for source in self.block_sources]
        #: block ids of the last :meth:`record_window`, for :meth:`unwind`.
        self._window_blocks = np.empty(0, dtype=np.int64)

    @staticmethod
    def _materialise(codec: ObjectCodec, data: bytes) -> List:
        """The per-block payload sources: ``(k, P)`` source arrays for
        rateless families, lazy row-on-demand encoders for fixed-rate
        ones.  Redundancy rows a carousel never emits before its
        receivers complete are rows that are never computed — and every
        fork shares the same encoders, so each row is computed at most
        once per server however many streams fan out."""
        if codec.is_rateless:
            return [codec.source_block(data, spec.block)
                    for spec in codec.plan.blocks]
        return [codec.block_encoder(data, spec.block)
                for spec in codec.plan.blocks]

    @property
    def total_k(self) -> int:
        return self.codec.total_k

    @property
    def num_blocks(self) -> int:
        return self.codec.num_blocks

    def _slot_stream(self) -> Iterator[int]:
        """The block of each emission: taken-back slots first, then
        whatever schedule is current (``reweight`` swaps it live)."""
        while True:
            while self._unsent:
                yield self._unsent.popleft()
            yield next(self._schedule)

    def _next_packet(self) -> EncodingPacket:
        return next(self._streams[next(self._slots)])

    def record_window(self, count: int) -> np.ndarray:
        """The next ``count`` emissions as a ``(count, H + P)`` array of
        wire records — what ``count`` :meth:`_next_packet` calls and a
        ``to_bytes`` each would serialise, with no per-packet object.

        One pass per layer: ``count`` schedule slots, one
        ``payload_batch`` per block they name, then index / serial /
        group (/ block, on multi-block plans; single-block plans keep
        the 12-byte header) stamped as big-endian ``u4`` columns.
        Cursors advance exactly as ``count`` packets would advance them,
        so windows and ``packets()`` interleave freely.
        """
        blocks = np.fromiter(islice(self._slots, count), dtype=np.int64,
                             count=count)
        multi = self.num_blocks > 1
        header = BLOCK_HEADER_SIZE if multi else HEADER_SIZE
        records = np.empty((count, header + self.codec.plan.packet_size),
                           dtype=np.uint8)
        fields = np.empty((count, header // 4), dtype=">u4")
        for block in np.unique(blocks):
            rows = blocks == block
            fields[rows, 0], records[rows, header:] = self.block_sources[
                block].payload_batch(int(rows.sum()))
        fields[:, 1] = self._sequencer.take(count)
        fields[:, 2] = self.group
        if multi:
            fields[:, 3] = blocks
        records[:, :header] = fields.view(np.uint8)
        self._window_blocks = blocks
        return records

    def unwind(self, count: int) -> None:
        """Take back the last ``count`` emissions of the last window.

        For a sender stopped mid-window: slots, block cursors and
        serials return to the last record that actually went out, so
        the next window (or packet) continues the stream with no id
        skipped.  Synthesis is a pure function of the emission
        position, so the sources' look-ahead buffers stay valid.
        """
        if count <= 0:
            return
        unsent = self._window_blocks[-count:]
        self._window_blocks = self._window_blocks[:-count]
        self._unsent.extendleft(unsent[::-1].tolist())
        for block, emissions in zip(*np.unique(unsent, return_counts=True)):
            self.block_sources[block]._retreat(int(emissions))
        self._sequencer.retreat(count)

    def reweight(self, weights: Optional[List[float]]) -> None:
        """Swap the cross-block schedule for a weighted stripe, live.

        The adaptive sender's schedule lever: only the slot cursor
        changes — the per-block sources, their carousel positions, the
        header sequencer, and the encode-once payload cache (shared
        with every ``fork()``) are all untouched, so reweighting is
        safe mid-stream and invisible to receivers beyond the block
        mix.  ``None`` restores the server's configured schedule.
        """
        if weights is None:
            self._schedule = make_schedule(self.schedule,
                                           self.codec.plan.block_ks)
        else:
            self._schedule = weighted_slots(self.codec.plan.block_ks,
                                            weights)
        self._unsent.clear()

    def _rewind(self) -> None:
        for source in self.block_sources:
            source.reset()
        self.reweight(None)
        self._streams = [source.packets() for source in self.block_sources]
        self._window_blocks = self._window_blocks[:0]

    def fork(self, *, seed: Optional[int] = None,
             schedule: Optional[str] = None,
             group: Optional[int] = None) -> "TransferServer":
        """An independent stream over the *same* cached encodings.

        The fork shares this server's per-block payload arrays (no
        re-encode) but owns its own schedule cursor, carousel
        permutations (when ``seed`` differs) and header sequencer —
        the encode-once/serve-many shape a transport uses to give each
        receiver, mirror or retransmission sweep its own stream.
        """
        return TransferServer(
            self.codec, self._data,
            schedule=self.schedule if schedule is None else schedule,
            seed=self.seed if seed is None else seed,
            group=self.group if group is None else group,
            _payloads=self._payloads)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TransferServer(code={self.codec.code_spec!r}, "
                f"blocks={self.num_blocks}, schedule={self.schedule!r})")
