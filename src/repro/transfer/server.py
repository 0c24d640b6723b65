"""Serving a block-segmented object as one striped packet stream.

A :class:`TransferServer` composes one fountain sub-source per block —
:class:`~repro.fountain.carousel.CarouselServer` for fixed-rate
families, :class:`~repro.fountain.rateless.RatelessServer` for rateless
ones — and draws encoding indices from them in the order a pluggable
cross-block schedule dictates.  The server stamps every header itself,
from one :class:`~repro.fountain.packets.HeaderSequencer`, so serials
are strictly monotone across the whole striped stream (receivers
estimate loss from serial gaps exactly as on a single-block stream).

It is the one place that knows what emission ``t`` carries — block,
encoding index, payload — and :meth:`TransferServer.record_window` is
the one place its records are stamped.  Transports draw those windows;
``packets()`` hands out the rows of one held window at a time, for
in-process callers; simulations build the server *without data* (the
structural stream, over index-only block sources) and draw the same
:meth:`TransferServer.window` for the ids.

Header compatibility: a multi-block stream tags every packet with its
block id in the 16-byte block header (:mod:`repro.fountain.packets`);
a single-block plan degrades to the legacy 12-byte header, keeping the
wire format byte-identical to the paper's.  Which one a stream carries
is the codec's size rule (:attr:`ObjectCodec.block_aware
<repro.transfer.codec.ObjectCodec.block_aware>`).

Encode once, serve many — and only what is served: fixed-rate blocks
are held as lazy row-on-demand encoders
(:meth:`~repro.codes.base.ErasureCode.block_encoder`), rateless blocks
as one stacked array of droplet inputs (:class:`_DropletStack`), and
:meth:`TransferServer.fork` spins up
additional independent streams over the *same* cached objects.  Each
encoding row is computed at most once no matter how many concurrent
receivers a transport fans the object out to, and redundancy rows the
carousels never reach are never computed at all.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.codes.lt.encoder import xor_neighbours
from repro.codes.raptor.code import RaptorCode
from repro.errors import ParameterError
from repro.fountain.packets import EncodingPacket, stamp_headers
from repro.fountain.carousel import CarouselServer
from repro.fountain.rateless import RatelessServer
from repro.fountain.source import SequencedPacketSource
from repro.codes.registry import block_seed
from repro.transfer.codec import ObjectCodec
from repro.transfer.schedule import make_schedule, weighted_slots


class _DropletStack:
    """A rateless plan's droplet inputs as one stacked array, and the
    synthesis pass that serves a whole window from it.

    LT droplets XOR source packets, so the stack is the object's
    ``(total_k, P)`` packet rows — a read-only view of the object's own
    ``bytes`` when they are whole packets, else of one private padded
    copy (a ``bytearray`` is always copied, so a caller mutating it
    later cannot reach the stream); block boundaries fall on packet
    boundaries, so each block's source is a view of it.  Raptor
    droplets XOR intermediates: every block's pre-solve writes into its
    rows of one slab, and its systematic ids gather from the object
    rows.  Every fork shares the stack, so nothing is encoded twice.
    """

    def __init__(self, codec: ObjectCodec, data: bytes):
        plan = codec.plan
        codes = [codec.code_for(spec.block) for spec in plan.blocks]
        #: the object's packet rows; block b is rows [first_b, first_b + k_b)
        padded_len = plan.total_packets * plan.packet_size
        self.rows = np.frombuffer(data.ljust(padded_len, b"\0"),
                                  dtype=np.uint8).reshape(-1, plan.packet_size)
        self._first = np.array([spec.byte_offset // plan.packet_size
                                for spec in plan.blocks], dtype=np.int64)
        if isinstance(codes[0], RaptorCode):
            widths = np.array([code.intermediate_count for code in codes])
            self._input_first = np.cumsum(widths) - widths
            #: the rows droplets XOR: the object rows, or the Raptor slab
            self.inputs = np.empty((int(widths.sum()), plan.packet_size),
                                   dtype=np.uint8)
            for code, first, input_first, width in zip(
                    codes, self._first.tolist(), self._input_first.tolist(),
                    widths.tolist()):
                code.encoder(self.rows[first:first + code.k],
                             out=self.inputs[input_first:input_first + width])
            # ids below k are systematic rows; repair id i is internal
            # droplet row repair_base + (i - k)
            self._systematic = np.array([code.k for code in codes])
            self._esi_shift = np.array(
                [code.geometry.repair_base - code.k for code in codes])
        else:
            self.inputs = self.rows
            self._input_first = self._first
            self._systematic = self._esi_shift = np.zeros(len(codes),
                                                          dtype=np.int64)
        # Blocks whose droplet specs agree on k and the degree pmf (every
        # full-size block of a plan) derive their neighbours in one call.
        groups: Dict[Any, List[int]] = {}
        for block, code in enumerate(codes):
            groups.setdefault((code.spec.k, code.spec.degree_dist),
                              []).append(block)
        self._group_of = np.empty(len(codes), dtype=np.int64)
        self._member = np.empty(len(codes), dtype=np.int64)
        self._groups = []
        for group, blocks in enumerate(groups.values()):
            self._group_of[blocks] = group
            self._member[blocks] = np.arange(len(blocks))
            self._groups.append([codes[block].spec for block in blocks])

    def synthesise(self, blocks: np.ndarray, indices: np.ndarray,
                   out: np.ndarray) -> None:
        """Write the payload of droplet ``indices[r]`` of block
        ``blocks[r]`` into ``out[r]``, for every row at once.

        Systematic rows are one row gather; droplet rows go through one
        neighbour derivation per spec group, shifted to their block's
        rows of the stack, and one XOR gather over it.
        """
        systematic = indices < self._systematic[blocks]
        out[systematic] = self.rows[self._first[blocks[systematic]]
                                    + indices[systematic]]
        droplets = np.nonzero(~systematic)[0]
        for group, specs in enumerate(self._groups):
            rows = droplets[self._group_of[blocks[droplets]] == group]
            if not rows.size:
                continue
            owner = blocks[rows]
            flat, indptr = specs[0].neighbour_block(
                indices[rows] + self._esi_shift[owner],
                specs=specs, member=self._member[owner])
            flat += np.repeat(self._input_first[owner], np.diff(indptr))
            xor_neighbours(self.inputs, flat, indptr, out, rows)


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
                 _cache: Optional[Tuple[List, Optional[_DropletStack]]]
                 = None):
        super().__init__(group=group)
        if data is not None and len(data) != codec.plan.file_size:
            raise ParameterError(
                f"object is {len(data)} bytes, codec plans for "
                f"{codec.plan.file_size}")
        self.codec = codec
        self.schedule = schedule
        self.seed = int(seed)
        self._data = data
        if _cache is None:
            _cache = self._materialise(codec, data)
        #: the encode-once cache every fork shares: per-block payload
        #: sources (a lazy (n, P) row encoder for fixed-rate codes, None
        #: for rateless ones and without data) and, for a rateless plan
        #: with data, the stacked droplet inputs.
        self._payloads, self._stack = _cache
        #: the per-block cursors the schedule draws indices from (a
        #: carousel also gathers its rows); the server stamps them.
        self.block_sources: List[SequencedPacketSource] = [
            RatelessServer(codec.code_for(spec.block))
            if codec.is_rateless else
            CarouselServer(codec.code_for(spec.block), payload,
                           seed=block_seed(self.seed, spec.block))
            for spec, payload in zip(codec.plan.blocks, self._payloads)]
        #: slots :meth:`unwind` took back, re-emitted before the schedule
        #: moves on.
        self._unsent: Deque[int] = deque()
        self.reweight(None)
        self._slots = self._slot_stream()
        #: block ids and serials of the last :meth:`window` (the block
        #: ids for :meth:`unwind`, the serials for the header stamp).
        self._window_blocks = self._window_serials = np.zeros(0, np.int64)

    @staticmethod
    def _materialise(codec: ObjectCodec, data: Optional[bytes]
                     ) -> Tuple[List, Optional[_DropletStack]]:
        """The per-block payload sources (and the rateless stack).

        Rateless families get one :class:`_DropletStack`; fixed-rate
        ones lazy row-on-demand encoders.  Redundancy rows a
        carousel never emits before its receivers complete are rows that
        are never computed — and every fork shares the same encoders,
        so each row is computed at most once per server however many
        streams fan out."""
        if data is None:
            return [None] * codec.num_blocks, None
        if codec.is_rateless:
            return [None] * codec.num_blocks, _DropletStack(codec, data)
        return [codec.block_encoder(data, spec.block)
                for spec in codec.plan.blocks], None

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

    def window(self, count: int
               ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """The next ``count`` emissions as ``(blocks, indices,
        payloads)`` arrays — the only batched draw.

        ``payloads`` is ``(count, P)`` rows when the server holds data,
        ``None`` on a structural one.  Cursors and serials advance as
        ``count`` packets would advance them (emission ``t`` carries
        serial ``t`` however drawn), so draws interleave freely.
        """
        self._hand_back()
        payloads = None if self._data is None else np.empty(
            (count, self.codec.plan.packet_size), dtype=np.uint8)
        blocks, indices = self._draw(count, payloads)
        return blocks, indices, payloads

    def _draw(self, count: int, payloads: Optional[np.ndarray]
              ) -> Tuple[np.ndarray, np.ndarray]:
        """``count`` schedule slots, their indices, and — when
        ``payloads`` rows are given — their payloads written into them.

        Indices come from one cursor draw per block the slots name.  A
        rateless plan then synthesises every payload of the window in
        one pass over its stack; a carousel gathers per block.
        """
        blocks = np.fromiter(islice(self._slots, count), dtype=np.int64,
                             count=count)
        indices = np.empty(count, dtype=np.int64)
        gather = payloads is not None and self._stack is None
        # each block's slots, in emission order: one stable sort
        order = np.argsort(blocks, kind="stable")
        end = 0
        for block, size in enumerate(np.bincount(blocks).tolist()):
            if not size:
                continue
            rows, end = order[end:end + size], end + size
            source = self.block_sources[block]
            indices[rows] = drawn = source.index_batch(size)
            if gather:
                payloads[rows] = source._gather(drawn)
        if payloads is not None and self._stack is not None:
            self._stack.synthesise(blocks, indices, payloads)
        self._window_blocks = blocks
        self._window_serials = self._sequencer.take(count)
        return blocks, indices

    def record_window(self, count: int) -> np.ndarray:
        """The next ``count`` emissions as a ``(count, H + P)`` array of
        wire records — the one stamping site: ``packets()`` hands out
        the rows of windows of :data:`~repro.fountain.source.LOOKAHEAD`.

        One draw with the payloads written straight into the records,
        plus one :func:`~repro.fountain.packets.stamp_headers` pass over
        the codec's header size.
        """
        if self._data is None:
            raise ParameterError(
                "a structural server (built without data) has no payloads "
                "to record; draw window() for the ids")
        self._hand_back()
        header = self.codec.header_size
        records = np.empty((count, self.codec.record_size), dtype=np.uint8)
        blocks, indices = self._draw(count, records[:, header:])
        stamp_headers(records, header, indices, self._window_serials,
                      self.group, blocks)
        return records

    def _stamp_window(self, count: int) -> List[EncodingPacket]:
        header = self.codec.header_size
        return [EncodingPacket(record, header)
                for record in self.record_window(count)]

    def unwind(self, count: int) -> None:
        """Take back the last ``count`` emissions of the last window.

        For a sender stopped mid-window: slots, block cursors and
        serials return to the last record that actually went out, so
        the next window (or packet) continues the stream with no id
        skipped.  A window ``packets()`` holds is handed back first.
        """
        self._hand_back()
        if count <= 0:
            return
        unsent = self._window_blocks[-count:]
        self._window_blocks = self._window_blocks[:-count]
        self._unsent.extendleft(unsent[::-1].tolist())
        for block, emissions in zip(*np.unique(unsent, return_counts=True)):
            self.block_sources[block]._retreat(int(emissions))
        self._sequencer.retreat(count)

    _take_back = unwind

    def reweight(self, weights: Optional[List[float]]) -> None:
        """Swap the cross-block schedule for a weighted stripe, live.

        The adaptive sender's schedule lever: only the slot cursor
        changes — the per-block sources, their carousel positions, the
        header sequencer, and the encode-once payload cache (shared
        with every ``fork()``) are all untouched, so reweighting is
        safe mid-stream and invisible to receivers beyond the block
        mix.  ``None`` restores the server's configured schedule.
        """
        self._hand_back()
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

        The fork shares this server's per-block encoders and stacked
        droplet inputs (no re-encode) but owns its own schedule cursor,
        carousel permutations (when ``seed`` differs) and header
        sequencer — the encode-once/serve-many shape a transport uses to
        give each receiver, mirror or retransmission sweep its own
        stream.
        """
        return TransferServer(
            self.codec, self._data,
            schedule=self.schedule if schedule is None else schedule,
            seed=self.seed if seed is None else seed,
            group=self.group if group is None else group,
            _cache=(self._payloads, self._stack))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TransferServer(code={self.codec.code_spec!r}, "
                f"blocks={self.num_blocks}, schedule={self.schedule!r})")
