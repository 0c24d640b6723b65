"""Serving a block-segmented object as one striped packet stream.

A :class:`TransferServer` composes one fountain sub-source per block —
:class:`~repro.fountain.carousel.CarouselServer` for fixed-rate
families, :class:`~repro.fountain.rateless.RatelessServer` for rateless
ones — and pulls packets from them in the order a pluggable cross-block
schedule dictates.  All sub-sources stamp headers through one shared
:class:`~repro.fountain.packets.HeaderSequencer`, so serials are
strictly monotone across the whole striped stream (receivers estimate
loss from serial gaps exactly as on a single-block stream).

It is the one place that knows what emission ``t`` carries — block,
encoding index, payload.  Transports pull ``packets()`` or stamped
:meth:`TransferServer.record_window` windows; simulations build the
server *without data* (the structural stream, over index-only block
sources) and draw the same :meth:`TransferServer.window` for the ids.

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
from typing import Deque, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ParameterError
from repro.fountain.packets import (
    BLOCK_HEADER_SIZE,
    HEADER_SIZE,
    EncodingPacket,
)
from repro.fountain.carousel import CarouselServer
from repro.fountain.rateless import RatelessServer
from repro.fountain.source import SequencedPacketSource
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
        Omit them for the *structural* stream: the same emission order,
        ids only — :meth:`window` draws it, nothing can emit a payload.
    schedule:
        Cross-block schedule name — ``"interleave"`` (default) or
        ``"sequential"``; see :mod:`repro.transfer.schedule`.
    seed:
        Transmission seed for the per-block carousel permutations
        (independent of the codec's code-graph seed).
    group:
        Group number stamped into every header.
    """

    def __init__(self, codec: ObjectCodec, data: Optional[bytes] = None,
                 schedule: str = "interleave",
                 seed: int = 0, group: int = 0,
                 _payloads: Optional[List] = None):
        super().__init__(group=group)
        if data is not None and len(data) != codec.plan.file_size:
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
        #: (k, P) source block for rateless ones, None without data.
        self._payloads = _payloads
        self.block_sources: List[SequencedPacketSource] = []
        for spec, payload in zip(codec.plan.blocks, _payloads):
            code = codec.code_for(spec.block)
            block = spec.block if codec.num_blocks > 1 else None
            self.block_sources.append(
                RatelessServer(code, payload, sequencer=self._sequencer,
                               block=block)
                if codec.is_rateless else
                CarouselServer(code, payload,
                               seed=block_seed(self.seed, spec.block),
                               sequencer=self._sequencer, block=block))
        #: slots :meth:`unwind` took back, re-emitted before the schedule
        #: moves on.
        self._unsent: Deque[int] = deque()
        self.reweight(None)
        self._slots = self._slot_stream()
        #: block ids and serials of the last :meth:`window` (the block
        #: ids for :meth:`unwind`, the serials for the header stamp).
        self._window_blocks = self._window_serials = np.zeros(0, np.int64)

    @staticmethod
    def _materialise(codec: ObjectCodec, data: Optional[bytes]) -> List:
        """The per-block payload sources: ``(k, P)`` source arrays for
        rateless families, lazy row-on-demand encoders for fixed-rate
        ones.  Redundancy rows a carousel never emits before its
        receivers complete are rows that are never computed — and every
        fork shares the same encoders, so each row is computed at most
        once per server however many streams fan out."""
        if data is None:
            return [None] * codec.num_blocks
        build = codec.source_block if codec.is_rateless \
            else codec.block_encoder
        return [build(data, spec.block) for spec in codec.plan.blocks]

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
        return self.block_sources[next(self._slots)]._next_packet()

    def window(self, count: int
               ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """The next ``count`` emissions as ``(blocks, indices,
        payloads)`` arrays — the only batched draw.

        ``count`` schedule slots, then one batch per block they name;
        ``payloads`` is ``(count, P)`` rows when the server holds data,
        ``None`` on a structural one.  Cursors and serials advance as
        ``count`` packets would advance them (emission ``t`` carries
        serial ``t`` however drawn), so draws interleave freely.
        """
        blocks = np.fromiter(islice(self._slots, count), dtype=np.int64,
                             count=count)
        indices = np.empty(count, dtype=np.int64)
        payloads = None if self._data is None else np.empty(
            (count, self.codec.plan.packet_size), dtype=np.uint8)
        for block in np.unique(blocks):
            rows = blocks == block
            source, size = self.block_sources[block], int(rows.sum())
            if payloads is None:
                indices[rows] = source.index_batch(size)
            else:
                indices[rows], payloads[rows] = source.payload_batch(size)
        self._window_blocks = blocks
        self._window_serials = self._sequencer.take(count)
        return blocks, indices, payloads

    def record_window(self, count: int) -> np.ndarray:
        """The next ``count`` emissions as a ``(count, H + P)`` array of
        wire records — what ``count`` :meth:`_next_packet` calls and a
        ``to_bytes`` each would serialise, with no per-packet object.

        One :meth:`window` plus the header stamp: index / serial /
        group (/ block, on multi-block plans; single-block plans keep
        the 12-byte header) as big-endian ``u4`` columns.
        """
        blocks, indices, payloads = self.window(count)
        if payloads is None:
            self.unwind(count)      # refused: the stream has not moved
            raise ParameterError(
                "a structural server (built without data) has no payloads "
                "to record; draw window() for the ids")
        multi = self.num_blocks > 1
        header = BLOCK_HEADER_SIZE if multi else HEADER_SIZE
        records = np.empty((count, header + payloads.shape[1]),
                           dtype=np.uint8)
        fields = np.empty((count, header // 4), dtype=">u4")
        fields[:, 0] = indices
        fields[:, 1] = self._window_serials
        fields[:, 2] = self.group
        if multi:
            fields[:, 3] = blocks
        records[:, :header] = fields.view(np.uint8)
        records[:, header:] = payloads
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
        block_ks = self.codec.plan.block_ks
        self._schedule = (make_schedule(self.schedule, block_ks)
                          if weights is None
                          else weighted_slots(block_ks, weights))
        self._unsent.clear()

    def _rewind(self) -> None:
        for source in self.block_sources:
            source.reset()
        self.reweight(None)
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
