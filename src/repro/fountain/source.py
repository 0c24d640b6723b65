"""The emission machinery behind every packet stream.

Every stream the library serves — a carousel cycling a fixed encoding,
a rateless droplet fountain, a block-striped bulk transfer — answers
the same two questions: *give me the next packets* and *start over*.
:class:`SequencedPacketSource` hosts the machinery behind them:
sequencer ownership, the counted emission loop, session reset — and,
for the two block sources
(:class:`~repro.fountain.carousel.CarouselServer`,
:class:`~repro.fountain.rateless.RatelessServer`), the emission cursor
itself.  What emission ``t`` of a block carries is a pure function of
``t``; a block source supplies only that function — a position → index
map, an index → payload gather, and how far its id range reaches — and
the cursor, the look-ahead buffer and every draw live here once.

Which class serves a code is not data:
:class:`~repro.transfer.server.TransferServer` builds a rateless or a
carousel source per block on the codec's ``is_rateless``.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.fountain.packets import EncodingPacket, HeaderSequencer

__all__ = ["LOOKAHEAD", "SequencedPacketSource"]


#: emissions synthesised per look-ahead fill, for per-packet pulls.  A
#: block source derives this many payloads in one batched pass (one
#: ``payload_block`` / one fancy-indexed row gather) and hands them out
#: a packet at a time, so the per-call cost of neighbour derivation is
#: paid once per fill; it holds at most this many payloads beyond what
#: it has emitted.  A rateless transfer's record windows bypass it:
#: they draw ids with :meth:`SequencedPacketSource.index_batch` and
#: synthesise the whole window across blocks in one pass.
LOOKAHEAD = 32


class SequencedPacketSource:
    """Shared emission machinery for sources that stamp wire records.

    Owns (or shares) the :class:`HeaderSequencer`, implements the
    counted ``packets()`` loop in terms of :meth:`_next_packet`, and
    splits :meth:`reset` into the shared sequencer half plus
    :meth:`_rewind`.

    For a block source it also owns the emission cursor — the number of
    emissions made, which is the only stream state — and every way of
    drawing from it: a packet at a time (:meth:`_next_packet`), a batch
    of indices with or without their payloads (:meth:`index_batch`,
    :meth:`payload_batch`), and back again (:meth:`_retreat`).  The
    subclass supplies three pure hooks: :meth:`_indices` (a run of
    emission positions → encoding indices), :meth:`_gather` (index →
    payload row) and :meth:`_headroom` (how far the id range reaches).
    Payloads are synthesised ahead of emission: :meth:`_ahead` serves
    the cursor out of a buffer refilled by one batched gather per
    :data:`LOOKAHEAD` emissions.  The buffer is keyed by position and
    synthesis is a pure function of it, so it never goes stale.

    A striped server has a schedule where a block source has a cursor:
    :class:`~repro.transfer.server.TransferServer` overrides
    :meth:`_next_packet` and :meth:`_rewind` and draws from its block
    sources.

    Parameters
    ----------
    group:
        Group number stamped into packet headers (ignored when a shared
        ``sequencer`` is supplied — the sequencer's group wins).
    sequencer:
        Optional shared :class:`HeaderSequencer`.  Sub-servers of a
        striped transfer all stamp from one sequencer so serials stay
        strictly monotone across the whole stream; by default the
        source owns a private one.
    block:
        Block id for block-aware headers.  ``None`` (the default) keeps
        the legacy 12-byte header — required for single-block streams,
        which must stay byte-compatible with the paper's format.
    """

    def __init__(self, group: int = 0,
                 sequencer: Optional[HeaderSequencer] = None,
                 block: Optional[int] = None):
        self.block = block
        self._owns_sequencer = sequencer is None
        self._sequencer = (HeaderSequencer(group=group)
                           if sequencer is None else sequencer)
        self.group = self._sequencer.group
        self._position = 0
        self._ahead_from = 0
        self._ahead_indices = self._ahead_payloads = np.empty(0)

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
        """How many emissions past the cursor a look-ahead fill may
        synthesise; raises when the id range has fewer than ``count``
        left."""
        raise NotImplementedError  # pragma: no cover - abstract

    # -- the cursor ------------------------------------------------------------

    def _ahead(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Indices and payloads of the next ``count`` emissions, through
        the look-ahead buffer (the cursor does not move).

        A miss refills the buffer from the cursor on: :data:`LOOKAHEAD`
        emissions, never more than the headroom.  The id range is asked
        on a miss only — whatever the buffer holds was in range when it
        was filled.  Requests of a whole look-ahead or more are their
        own batch and bypass the buffer.
        """
        row = self._position - self._ahead_from
        if count < LOOKAHEAD and 0 <= row <= len(self._ahead_indices) - count:
            return (self._ahead_indices[row:row + count],
                    self._ahead_payloads[row:row + count])
        fill = max(count, min(LOOKAHEAD, self._headroom(count)))
        indices = self._indices(self._position, fill)
        payloads = self._gather(indices)
        if count < LOOKAHEAD:
            self._ahead_from = self._position
            self._ahead_indices, self._ahead_payloads = indices, payloads
        return indices[:count], payloads[:count]

    def index_batch(self, count: int) -> np.ndarray:
        """Encoding indices of the next ``count`` emissions; the cursor
        advances by ``count``.  All an index-only source can emit — the
        structural simulations' draw."""
        self._headroom(count)
        indices = self._indices(self._position, count)
        self._position += int(count)
        return indices

    def payload_batch(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Indices and payloads of the next ``count`` emissions.

        The batched twin of ``count`` :meth:`_next_packet` calls minus
        the header stamping, with the same exhaustion semantics: the
        cursor advances by ``count``, and a bounded id range raises as
        soon as the batch would run past it.
        """
        batch = self._ahead(count)
        self._position += int(count)
        return batch

    def _next_packet(self) -> EncodingPacket:
        """The next emission as a one-row record, out of the look-ahead."""
        indices, payloads = self._ahead(1)
        serial = int(self._sequencer.take(1)[0])
        self._position += 1
        return EncodingPacket.stamp(payloads[0], int(indices[0]), serial,
                                    self.group, self.block)

    def _retreat(self, count: int) -> None:
        """Move the cursor back ``count`` emissions.  The look-ahead
        buffer is keyed by position, so whatever was synthesised for
        them is served again as-is."""
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
        """Rewind the stream to its start (a fresh session).

        A *shared* sequencer is left untouched — its owner (e.g. the
        transfer server) resets the whole striped stream.
        """
        self._rewind()
        self._ahead_indices = self._ahead_payloads = np.empty(0)
        if self._owns_sequencer:
            self._sequencer.reset()
