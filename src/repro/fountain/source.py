"""The emission machinery behind every packet stream.

Every stream the library serves — a carousel cycling a fixed encoding,
a rateless droplet fountain, a block-striped bulk transfer — answers
the same two questions: *give me the next packets* and *start over*.
:class:`SequencedPacketSource` hosts the machinery behind them: the
header sequencer, the counted emission loop, session reset, the held
record window per-packet pulls are served from — and, for the two block
sources (:class:`~repro.fountain.carousel.CarouselServer`,
:class:`~repro.fountain.rateless.RatelessServer`), the emission cursor
itself.  What emission ``t`` of a block carries is a pure function of
``t``; a block source supplies only that function — a position → index
map, an index → payload gather, and how far its id range reaches — and
the cursor and every draw live here once.

Which class serves a code is not data:
:class:`~repro.transfer.server.TransferServer` builds a rateless or a
carousel source per block on the codec's ``is_rateless``.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from repro.fountain.packets import EncodingPacket, HeaderSequencer

__all__ = ["LOOKAHEAD", "SequencedPacketSource"]


#: rows of the record window a per-packet pull is served from.  A
#: source stamps this many emissions in one window draw (one batched
#: synthesis, one header pass) and hands them out a packet at a time, so
#: the per-call cost of neighbour derivation and stamping is paid once
#: per window; it holds at most this many records beyond what it has
#: emitted, and hands the rest back before any other draw.
LOOKAHEAD = 32


class SequencedPacketSource:
    """Shared emission machinery for sources that stamp wire records.

    Owns the :class:`HeaderSequencer`, the counted ``packets()`` loop
    and :meth:`reset` (the sequencer half plus :meth:`_rewind`).  A
    packet is a row of a held record window: :meth:`_next_packet` hands
    out the :data:`LOOKAHEAD` rows :meth:`_stamp_window` drew and
    stamped in one pass, and every other draw first hands back the rows
    not yet pulled (:meth:`_hand_back`, through :meth:`_take_back`), so
    emission ``t`` is the same record however the stream is drawn.

    A block source's cursor lives here too — the number of emissions
    drawn, the only stream state — with its draws: a stamped window
    under the legacy 12-byte header, :meth:`index_batch` and
    :meth:`_retreat`.  The subclass supplies three pure hooks:
    :meth:`_indices` (emission positions → encoding indices),
    :meth:`_gather` (index → payload row) and :meth:`_headroom` (how far
    the id range reaches).  A striped
    :class:`~repro.transfer.server.TransferServer` has a schedule
    instead: it overrides :meth:`_stamp_window` (its ``record_window``),
    :meth:`_take_back` (its ``unwind``) and :meth:`_rewind`.

    Parameters
    ----------
    group:
        Group number stamped into packet headers.
    """

    def __init__(self, group: int = 0):
        self._sequencer = HeaderSequencer(group=group)
        self.group = group
        self._position = 0
        #: the held record window and how many of its rows went out
        self._held: List[EncodingPacket] = []
        self._pulled = 0

    # -- what a block source supplies ------------------------------------------

    def _indices(self, first: int, count: int) -> np.ndarray:
        """The encoding indices emissions ``first .. first + count - 1``
        carry."""
        raise NotImplementedError  # pragma: no cover - abstract

    def _gather(self, indices: np.ndarray) -> np.ndarray:
        """The payload rows of ``indices``; an index-only source raises
        :class:`~repro.errors.ParameterError` here."""
        raise NotImplementedError  # pragma: no cover - abstract

    def _headroom(self, count: int) -> int:
        """How many emissions past the cursor a window may draw; raises
        when the id range has fewer than ``count`` left."""
        raise NotImplementedError  # pragma: no cover - abstract

    # -- the cursor ------------------------------------------------------------

    @property
    def _emitted(self) -> int:
        """Emissions handed out: the cursor less the unpulled rows."""
        return self._position - (len(self._held) - self._pulled)

    def index_batch(self, count: int) -> np.ndarray:
        """Encoding indices of the next ``count`` emissions; the cursor
        advances by ``count``.  All an index-only source can emit — the
        structural simulations' draw."""
        self._hand_back()
        self._headroom(count)
        indices = self._indices(self._position, count)
        self._position += int(count)
        return indices

    def _stamp_window(self, count: int) -> List[EncodingPacket]:
        """Up to ``count`` next emissions as stamped records: never past
        the headroom, and a bounded id range with none left raises.  An
        index-only source raises before the cursor moves."""
        count = min(count, self._headroom(1))
        indices = self._indices(self._position, count)
        payloads = self._gather(indices)
        self._position += count
        return EncodingPacket.stamp_rows(payloads, indices,
                                         self._sequencer.take(count),
                                         self.group)

    def _next_packet(self) -> EncodingPacket:
        """The next emission: a row of the held record window, stamped
        with the rest of it when the last one ran out."""
        if self._pulled == len(self._held):
            self._held, self._pulled = self._stamp_window(LOOKAHEAD), 0
        packet = self._held[self._pulled]
        self._pulled += 1
        return packet

    def _hand_back(self) -> None:
        """Take back the held rows not yet pulled, so the next draw
        starts at the last emitted packet."""
        unpulled = len(self._held) - self._pulled
        self._held, self._pulled = [], 0
        if unpulled:
            self._take_back(unpulled)

    def _take_back(self, count: int) -> None:
        """Take back the last ``count`` emissions: cursor and serials."""
        self._retreat(count)
        self._sequencer.retreat(count)

    def _retreat(self, count: int) -> None:
        """Move the cursor back ``count`` emissions."""
        self._position -= count

    def _rewind(self) -> None:
        """Rewind the stream state below the sequencer."""
        self._position = 0

    def packets(self, count: Optional[int] = None
                ) -> Iterator[EncodingPacket]:
        """Yield the next ``count`` packets (infinite when ``None``)."""
        emitted = 0
        while count is None or emitted < count:
            yield self._next_packet()
            emitted += 1

    def reset(self) -> None:
        """Rewind the stream to its start (a fresh session): the held
        window is dropped, not handed back."""
        self._held, self._pulled = [], 0
        self._rewind()
        self._sequencer.reset()
