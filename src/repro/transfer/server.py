"""Serving a block-segmented object as one striped packet stream.

A :class:`TransferServer` is the one packet server: it stripes an
object's blocks in the order a pluggable cross-block schedule dictates,
and it knows what every emission carries.  Emission ``t`` of block
``b`` is a pure function of ``t`` — the carousel index
``carousel_order(n_b, block_seed(seed, b))[t % n_b]`` on a fixed-rate
block (paper Sections 4 and 6), droplet ``t`` on a rateless one
(Section 3) — so a block's whole stream state is one cursor, the count
of its emissions.  Serials are the stream's emission count mod
``2**32`` (the sum of the cursors), strictly monotone across the whole
striped stream, so receivers estimate loss from serial gaps exactly as
on a single-block stream.

:meth:`TransferServer.records` is the one place records are stamped:
it synthesises and stamps given emissions without moving the stream.
:meth:`~TransferServer.draw_ids` moves the stream with no payload, and
:meth:`~TransferServer.record_window` is the two in one.  Wherever the
stop is known before a row is stamped, ids come first: the memory and
file transports and the simulations draw ids and stamp only what is
delivered (a structural server, built *without data*, draws ids
alone).  Only the UDP serve, which its receivers stop from afar, and
``packets()``, which hands out one held window's rows at a time, draw
record windows.

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
receivers a transport fans the object out to, and redundancy rows no
draw reaches are never computed at all.  A serve that knows its
survivors hands their rows to :meth:`TransferServer.expect` before it
stamps them, so each fixed-rate block computes exactly those rows — a
Tornado cap in one product.  A record window is synthesised whole: a
UDP serve pays for the rows its channels drop, and a Tornado block
computes its whole cap at the first cap row such a window asks for.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.codes.lt.encoder import xor_neighbours
from repro.codes.raptor.code import RaptorCode
from repro.errors import ParameterError, ProtocolError
from repro.fountain.packets import (
    SERIAL_MODULUS,
    EncodingPacket,
    stamp_headers,
)
from repro.codes.registry import block_seed
from repro.transfer.codec import ObjectCodec
from repro.transfer.schedule import (
    carousel_order,
    schedule_chunks,
    weighted_chunks,
)

#: rows of the record window a per-packet pull is served from.
#: ``packets()`` stamps this many emissions in one :meth:`record_window
#: <TransferServer.record_window>` (one batched synthesis, one header
#: pass) and hands them out a packet at a time; the server holds at
#: most this many records beyond what it has emitted, and hands the
#: rest back before any other draw.
LOOKAHEAD = 32


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
        codes = [codec.code_for(block) for block in range(plan.num_blocks)]
        #: the object's packet rows; block b is rows [first_b, first_b + k_b)
        padded_len = plan.total_packets * plan.packet_size
        self.rows = np.frombuffer(data.ljust(padded_len, b"\0"),
                                  dtype=np.uint8).reshape(-1, plan.packet_size)
        ks = np.array(plan.block_ks, dtype=np.int64)
        self._first = np.cumsum(ks) - ks
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


class TransferServer:
    """Streams one object's blocks, striped by a cross-block schedule.

    Parameters
    ----------
    codec:
        The per-block code binding (see
        :class:`~repro.transfer.codec.ObjectCodec`).
    data:
        The exact object bytes (must match the plan's ``file_size``).
        Omit them for the *structural* stream: the same emission order,
        ids only — :meth:`draw_ids` draws it, nothing can emit a payload.
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
        if not 0 <= group < SERIAL_MODULUS:
            raise ProtocolError(f"group {group} outside uint32 range")
        if data is not None and len(data) != codec.plan.file_size:
            raise ParameterError(
                f"object is {len(data)} bytes, codec plans for "
                f"{codec.plan.file_size}")
        self.codec = codec
        self.schedule = schedule
        self.seed = int(seed)
        self.group = group
        self._data = data
        if _cache is None:
            _cache = self._materialise(codec, data)
        #: the encode-once cache every fork shares: per-block payload
        #: sources (a lazy (n, P) row encoder for fixed-rate codes, None
        #: for rateless ones and without data) and, for a rateless plan
        #: with data, the stacked droplet inputs.
        self._payloads, self._stack = _cache
        #: emissions per block so far — the whole per-block stream state.
        self._cursors = np.zeros(codec.num_blocks, dtype=np.int64)
        #: a fixed-rate plan's carousel cycles end to end (block b's
        #: ``_cycle_n[b]`` indices from ``_cycle_first[b]``); None on a
        #: rateless plan, whose emission t carries droplet t.
        self._cycles: Optional[np.ndarray] = None
        if not codec.is_rateless:
            cycles = [carousel_order(codec.code_for(block).n,
                                     block_seed(self.seed, block))
                      for block in range(codec.num_blocks)]
            self._cycle_n = np.array([cycle.size for cycle in cycles])
            self._cycle_first = np.cumsum(self._cycle_n) - self._cycle_n
            self._cycles = np.concatenate(cycles)
        #: the held record window per-packet pulls are served from, and
        #: how many of its rows went out.
        self._held: List[EncodingPacket] = []
        self._pulled = 0
        #: block ids of the last draw, for :meth:`unwind`.
        self._window_blocks = np.zeros(0, np.int64)
        self.reweight(None)

    @staticmethod
    def _materialise(codec: ObjectCodec, data: Optional[bytes]
                     ) -> Tuple[List, Optional[_DropletStack]]:
        """The per-block payload sources (and the rateless stack).

        Rateless families get one :class:`_DropletStack`; fixed-rate
        ones lazy row-on-demand encoders.  Redundancy rows a
        carousel never draws are never computed (bar the rest of an
        unhinted Tornado cap, filled whole) — and every fork shares the
        same encoders,
        so each row is computed at most once per server however many
        streams fan out."""
        if data is None:
            return [None] * codec.num_blocks, None
        if codec.is_rateless:
            return [None] * codec.num_blocks, _DropletStack(codec, data)
        return [codec.block_encoder(data, block)
                for block in range(codec.num_blocks)], None

    @property
    def total_k(self) -> int:
        return self.codec.total_k

    @property
    def num_blocks(self) -> int:
        return self.codec.num_blocks

    def _take_slots(self, count: int) -> np.ndarray:
        """The blocks of the next ``count`` emissions, as a new array:
        the held slot chunk's next slots (taken-back slots are its
        prefix), topped up from the current schedule's chunks."""
        parts = [self._chunk[self._at:self._at + count]]
        self._at += parts[0].size
        short = count - parts[0].size
        while short > 0:
            self._chunk = next(self._chunks)
            self._at = min(short, self._chunk.size)
            parts.append(self._chunk[:self._at])
            short -= self._at
        return np.concatenate(parts)

    def draw_ids(self, count: int
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The next ``count`` emissions' ``(blocks, indices, serials)``
        — the only draw, and it synthesises no payload: :meth:`records`
        stamps any of these emissions later.  Cursors and serials
        advance as ``count`` packets would advance them (emission ``t``
        carries serial ``t`` however drawn), so draws interleave freely.

        A slot's index is its block's cursor plus its rank among the
        window's slots of that block, through the block's carousel
        cycle on a fixed-rate plan.  A droplet id past the uint32
        header field raises before a cursor moves.
        """
        self._hand_back()
        blocks = self._take_slots(count)
        sizes = np.bincount(blocks, minlength=self.num_blocks)
        if (self._cycles is None
                and (self._cursors + sizes).max() > SERIAL_MODULUS):
            raise ProtocolError(
                "droplet ids exhausted: a block's stream carries ids "
                "below 2**32 in its uint32 header field")
        # each block's slots, in emission order: one stable sort
        order = np.argsort(blocks, kind="stable")
        first = np.cumsum(sizes) - sizes
        emissions = np.empty(count, dtype=np.int64)
        emissions[order] = np.arange(count) + np.repeat(
            self._cursors - first, sizes)
        if self._cycles is None:
            indices = emissions
        else:
            indices = self._cycles[self._cycle_first[blocks]
                                   + emissions % self._cycle_n[blocks]]
        serials = (int(self._cursors.sum()) + np.arange(
            count, dtype=np.int64)) % SERIAL_MODULUS
        self._cursors += sizes
        self._window_blocks = blocks
        return blocks, indices, serials

    def _by_block(self, blocks: np.ndarray
                  ) -> Iterator[Tuple[int, np.ndarray]]:
        """Each block of ``blocks`` with its rows, in emission order."""
        sizes = np.bincount(blocks, minlength=self.num_blocks)
        order = np.argsort(blocks, kind="stable")
        ends = np.cumsum(sizes)
        for block in np.flatnonzero(sizes).tolist():
            yield block, order[ends[block] - sizes[block]:ends[block]]

    def _require_data(self) -> None:
        if self._data is None:
            raise ParameterError(
                "a structural server (built without data) has no payloads "
                "to record; draw_ids() draws the ids")

    def expect(self, blocks: np.ndarray, indices: np.ndarray) -> None:
        """Tell each fixed-rate block encoder the rows of ``(blocks,
        indices)`` that :meth:`records` is about to be asked for
        (:meth:`BlockEncoder.expect_rows
        <repro.codes.base.BlockEncoder.expect_rows>`), so a block that
        computes rows in batches computes exactly these in one.  A
        rateless plan synthesises per row and takes no hint."""
        self._require_data()
        if self._stack is None:
            for block, rows in self._by_block(blocks):
                self._payloads[block].expect_rows(indices[rows])

    def records(self, blocks: np.ndarray, indices: np.ndarray,
                serials: np.ndarray) -> np.ndarray:
        """The wire records of the given emissions as a ``(m, H + P)``
        array — the one stamping site; no cursor moves.

        One synthesis with the payloads written straight into the
        records — a rateless plan's in one pass over its stack, a
        carousel's gathered per block — plus one
        :func:`~repro.fountain.packets.stamp_headers` pass over the
        codec's header size.
        """
        self._require_data()
        header = self.codec.header_size
        records = np.empty((len(blocks), self.codec.record_size),
                           dtype=np.uint8)
        payloads = records[:, header:]
        if self._stack is not None:
            self._stack.synthesise(blocks, indices, payloads)
        else:
            for block, rows in self._by_block(blocks):
                payloads[rows] = self._payloads[block][indices[rows]]
        stamp_headers(records, header, indices, serials, self.group, blocks)
        return records

    def record_window(self, count: int) -> np.ndarray:
        """The next ``count`` emissions as a ``(count, H + P)`` array of
        wire records: :meth:`draw_ids` stamped by :meth:`records`.
        ``packets()`` hands out the rows of windows of
        :data:`LOOKAHEAD`."""
        self._require_data()
        return self.records(*self.draw_ids(count))

    def packets(self, count: Optional[int] = None
                ) -> Iterator[EncodingPacket]:
        """Yield the next ``count`` packets (infinite when ``None``)."""
        emitted = 0
        while count is None or emitted < count:
            yield self._next_packet()
            emitted += 1

    def _next_packet(self) -> EncodingPacket:
        """The next emission: a row of the held record window, stamped
        with the rest of it when the last one ran out.  A rateless
        window stops at the last droplet id, so the raise lands on the
        emission that needs an id past it."""
        if self._pulled == len(self._held):
            size = LOOKAHEAD
            if self._cycles is None:
                size = max(1, min(size, SERIAL_MODULUS
                                  - int(self._cursors.max())))
            header = self.codec.header_size
            self._held = [EncodingPacket(record, header)
                          for record in self.record_window(size)]
            self._pulled = 0
        packet = self._held[self._pulled]
        self._pulled += 1
        return packet

    def _hand_back(self) -> None:
        """Take back the held rows not yet pulled, so the next draw
        starts at the last emitted packet."""
        unpulled = len(self._held) - self._pulled
        self._held, self._pulled = [], 0
        if unpulled:
            self._retreat(unpulled)

    def unwind(self, count: int) -> None:
        """Take back the last ``count`` emissions of the last window.

        For a sender stopped mid-window: slots, block cursors and
        serials return to the last record that actually went out, so
        the next window (or packet) continues the stream with no id
        skipped.  A window ``packets()`` holds is handed back first.
        Only emissions of the last window that went out can be taken
        back: a ``count`` below 0 or above them raises
        :class:`~repro.errors.ParameterError` and moves nothing, as
        :meth:`LossyChannel.unwind
        <repro.net.channel.LossyChannel.unwind>` does.
        """
        kept = self._window_blocks.size - (len(self._held) - self._pulled)
        if not 0 <= count <= kept:
            raise ParameterError(
                f"cannot unwind {count} emissions: the last window has "
                f"{kept} behind the stream position")
        self._hand_back()
        if count > 0:
            self._retreat(count)

    def _retreat(self, count: int) -> None:
        """Put the last draw's last ``count`` slots back at the front of
        the held slot chunk and their blocks' cursors back."""
        unsent = self._window_blocks[-count:]
        self._window_blocks = self._window_blocks[:-count]
        self._chunk = np.concatenate([unsent, self._chunk[self._at:]])
        self._at = 0
        self._cursors -= np.bincount(unsent, minlength=self.num_blocks)

    def reweight(self, weights: Optional[List[float]]) -> None:
        """Swap the cross-block schedule for a weighted stripe, live.

        The adaptive sender's schedule lever: only the slot cursor
        changes — the block cursors, the serials and the encode-once
        payload cache (shared with every ``fork()``) are all untouched,
        so reweighting is safe mid-stream and invisible to receivers
        beyond the block mix.  ``None`` restores the server's
        configured schedule.
        """
        self._hand_back()
        block_ks = self.codec.plan.block_ks
        self._chunks = (schedule_chunks(self.schedule, block_ks)
                        if weights is None
                        else weighted_chunks(block_ks, weights))
        #: the held slot chunk and the position of the next slot in it;
        #: slots taken back before a reweight are dropped with it.
        self._chunk = self._window_blocks[:0]
        self._at = 0

    def reset(self) -> None:
        """Rewind the stream to its start (a fresh session): the held
        window is dropped, not handed back."""
        self._held, self._pulled = [], 0
        self._cursors[:] = 0
        self.reweight(None)
        self._window_blocks = self._window_blocks[:0]

    def fork(self, *, seed: Optional[int] = None,
             schedule: Optional[str] = None,
             group: Optional[int] = None) -> "TransferServer":
        """An independent stream over the *same* cached encodings.

        The fork shares this server's per-block encoders and stacked
        droplet inputs (no re-encode) but owns its own schedule, block
        cursors and carousel permutations (when ``seed`` differs) — the
        encode-once/serve-many shape a transport uses to give each
        receiver, mirror or retransmission sweep its own stream.
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
