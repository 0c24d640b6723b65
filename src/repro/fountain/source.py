"""The one producer contract behind every packet stream.

Every stream the library serves — a carousel cycling a fixed encoding,
a rateless droplet fountain, a block-striped bulk transfer, a layered
multicast schedule — ultimately answers the same two questions: *give
me the next packets* and *start over*.  :class:`PacketSource` spells
that contract out (it was duck-typed across
:class:`~repro.fountain.carousel.CarouselServer`,
:class:`~repro.fountain.rateless.RatelessServer`,
:class:`~repro.transfer.server.TransferServer` and the layered
protocol's stream adapter), and :class:`SequencedPacketSource` hosts
the machinery all of them previously duplicated: sequencer ownership,
the counted emission loop, and session reset.

Sources are also *registered by mode name* alongside the code registry
(:mod:`repro.codes.registry` names the modes: ``"carousel"``,
``"rateless"``, ``"layered"``), so any delivery shape is buildable from
a spec::

    from repro.fountain.source import build_packet_source

    source = build_packet_source(code, source_block)        # mode inferred
    source = build_packet_source(code, source_block, mode="layered")

which is what lets the transfer server, the transports and the CLI
treat "how packets are produced" as data rather than hard-wired class
choices.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.errors import ParameterError
from repro.fountain.packets import EncodingPacket, HeaderSequencer

__all__ = [
    "LOOKAHEAD",
    "PacketSource",
    "SequencedPacketSource",
    "SOURCE_MODES",
    "available_sources",
    "build_packet_source",
    "register_source",
]


#: emissions synthesised per look-ahead fill.  A block source derives
#: this many payloads in one batched pass (one ``payload_block`` / one
#: fancy-indexed row gather) and hands them out a packet at a time, so
#: the per-call cost of neighbour derivation is paid once per fill; it
#: holds at most this many payloads beyond what it has emitted.
LOOKAHEAD = 32


@runtime_checkable
class PacketSource(Protocol):
    """The producer side of every stream: emit packets, start over."""

    def packets(self, count: Optional[int] = None
                ) -> Iterator[EncodingPacket]:
        """Yield the next ``count`` packets (infinite when ``None``)."""
        ...  # pragma: no cover - protocol

    def reset(self) -> None:
        """Rewind the stream to its start (a fresh session)."""
        ...  # pragma: no cover - protocol


class SequencedPacketSource:
    """Shared emission machinery for sources that stamp wire headers.

    Owns (or shares) the :class:`HeaderSequencer`, implements the
    counted ``packets()`` loop in terms of one abstract
    :meth:`_next_packet`, and splits :meth:`reset` into the shared
    sequencer half plus a subclass :meth:`_rewind` hook.

    Block sources synthesise ahead of emission: :meth:`_ahead` serves
    emission positions — a packet at a time for ``packets()``, a few at
    a time for small ``payload_batch`` calls — out of a buffer refilled
    by one batched :meth:`_synthesise` call per :data:`LOOKAHEAD`
    emissions.  Synthesis is a pure function of the position, so the
    buffer is keyed by position and never goes stale — the emission
    cursor (what the subclass reports and ``reset()`` rewinds) is the
    only stream state.

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
        self._ahead_from = 0
        self._ahead_indices = self._ahead_payloads = np.empty(0)

    def _synthesise(self, first: int, count: int
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Indices and payloads of emissions ``first .. first + count``
        (block-source hook; must not depend on stream state)."""
        raise NotImplementedError  # pragma: no cover - abstract

    def _ahead(self, position: int, count: int, available: int
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Indices and payloads of emissions ``position .. position +
        count``, through the look-ahead buffer.

        A miss refills the buffer from ``position`` on, synthesising
        :data:`LOOKAHEAD` emissions but never more than ``available``
        (what a bounded id range has left).  Requests of a whole
        look-ahead or more are their own batch and bypass the buffer.
        """
        if count >= LOOKAHEAD:
            return self._synthesise(position, count)
        row = position - self._ahead_from
        if not 0 <= row <= len(self._ahead_indices) - count:
            self._ahead_indices, self._ahead_payloads = self._synthesise(
                position, max(count, min(LOOKAHEAD, available)))
            self._ahead_from, row = position, 0
        return (self._ahead_indices[row:row + count],
                self._ahead_payloads[row:row + count])

    def _next_packet(self) -> EncodingPacket:
        """Produce the next packet of the stream (subclass hook)."""
        raise NotImplementedError  # pragma: no cover - abstract

    def _rewind(self) -> None:
        """Rewind subclass stream state (subclass hook)."""
        raise NotImplementedError  # pragma: no cover - abstract

    def _retreat(self, count: int) -> None:
        """Move the emission cursor back ``count`` emissions (block-source
        hook).  The look-ahead buffer is keyed by position, so whatever
        was synthesised for them is served again as-is."""
        raise NotImplementedError  # pragma: no cover - abstract

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


# -- the source registry -------------------------------------------------------

#: mode name -> factory(code, source, **options) -> PacketSource.
SOURCE_MODES: Dict[str, Callable[..., Any]] = {}


def register_source(mode: str, factory: Callable[..., Any]) -> None:
    """Register a source factory under a delivery-mode name.

    The factory signature is ``factory(code, source=None, *, encoding,
    seed, sequencer, block, **options)``; unknown options raise inside
    the factory with the usual parameter errors.
    """
    if mode in SOURCE_MODES:
        raise ParameterError(f"source mode {mode!r} already registered")
    SOURCE_MODES[mode] = factory


def available_sources() -> List[str]:
    """All registered delivery-mode names, sorted."""
    return sorted(SOURCE_MODES)


def _is_rateless_code(code: Any) -> bool:
    """Rateless codes have no finite encoding length ``n``."""
    return getattr(code, "n", None) is None


def build_packet_source(code: Any,
                        source: Optional[np.ndarray] = None,
                        *,
                        mode: Optional[str] = None,
                        encoding: Optional[np.ndarray] = None,
                        seed: int = 0,
                        sequencer: Optional[HeaderSequencer] = None,
                        block: Optional[int] = None,
                        **options: Any) -> PacketSource:
    """Build the packet source serving ``code`` over one source block.

    ``mode`` picks the registered delivery shape; by default rateless
    codes pour droplets (``"rateless"``) and fixed-rate codes cycle a
    carousel (``"carousel"``).  Fixed-rate callers may pass a
    precomputed ``encoding`` to skip the encode (the transfer server's
    encode-once cache rides this).
    """
    if mode is None:
        mode = "rateless" if _is_rateless_code(code) else "carousel"
    try:
        factory = SOURCE_MODES[mode]
    except KeyError:
        raise ParameterError(
            f"unknown source mode {mode!r}; registered modes: "
            f"{', '.join(available_sources())}") from None
    return factory(code, source, encoding=encoding, seed=seed,
                   sequencer=sequencer, block=block, **options)


# -- default registrations -----------------------------------------------------


def _carousel_source(code: Any, source: Optional[np.ndarray] = None, *,
                     encoding: Optional[np.ndarray] = None, seed: int = 0,
                     sequencer: Optional[HeaderSequencer] = None,
                     block: Optional[int] = None,
                     **options: Any) -> PacketSource:
    from repro.fountain.carousel import CarouselServer

    if _is_rateless_code(code):
        raise ParameterError(
            "mode 'carousel' needs a fixed-rate code (n is defined); "
            "serve rateless codes with mode='rateless'")
    if encoding is None:
        if source is None:
            raise ParameterError(
                "carousel source needs the source block (or a "
                "precomputed encoding=)")
        encoding = code.encode(source)
    return CarouselServer(code, encoding=encoding, seed=seed,
                          sequencer=sequencer, block=block, **options)


def _rateless_source(code: Any, source: Optional[np.ndarray] = None, *,
                     encoding: Optional[np.ndarray] = None, seed: int = 0,
                     sequencer: Optional[HeaderSequencer] = None,
                     block: Optional[int] = None,
                     **options: Any) -> PacketSource:
    from repro.fountain.rateless import RatelessServer

    if not _is_rateless_code(code):
        raise ParameterError(
            f"mode 'rateless' needs a rateless code; "
            f"{type(code).__name__} has n={code.n}")
    if encoding is not None:
        raise ParameterError(
            "rateless codes have no finite encoding; pass the source block")
    return RatelessServer(code, source, sequencer=sequencer, block=block,
                          **options)


def _layered_source(code: Any, source: Optional[np.ndarray] = None, *,
                    encoding: Optional[np.ndarray] = None, seed: int = 0,
                    sequencer: Optional[HeaderSequencer] = None,
                    block: Optional[int] = None,
                    **options: Any) -> PacketSource:
    from repro.protocol.stream import layered_packet_source

    if block is not None or sequencer is not None:
        raise ParameterError(
            "layered sources stamp one sequencer per layer and carry no "
            "block id; serve blocks through mode 'carousel'/'rateless'")
    return layered_packet_source(code, source, encoding=encoding,
                                 seed=seed, **options)


register_source("carousel", _carousel_source)
register_source("rateless", _rateless_source)
register_source("layered", _layered_source)
