"""On-the-wire packet format.

Section 7.3: "The packets were additionally tagged with 12 bytes of
information (packet index, serial number and group number)".  We use the
same 12-byte header: three big-endian unsigned 32-bit fields.

* ``index``  — position of the payload within the erasure encoding
  (0 <= index < n); identifies *which* encoding packet this is.
* ``serial`` — monotonically increasing transmission serial number;
  distinguishes retransmissions of the same encoding packet across
  carousel cycles (and lets receivers estimate loss rates).
* ``group``  — multicast group / layer number for the layered protocol
  (always 0 on a single-layer carousel).

For a rateless (LT) stream the ``index`` field carries the *droplet id*
— unbounded, never repeating — instead of a position in a finite
encoding.  :class:`HeaderSequencer` owns the serial/group stamping all
fountain servers share.

Block-segmented transfers (:mod:`repro.transfer`) tag each packet with
the block it encodes via :class:`BlockHeader`, a 16-byte extension that
appends one uint32 ``block`` field directly after ``group``.  The first
12 bytes of a :class:`BlockHeader` are byte-identical to the legacy
header, and single-block streams keep emitting the plain 12-byte
:class:`PacketHeader`, so legacy receivers and block-aware receivers
agree whenever there is only one block.

This module is the one home of the record layout: :func:`stamp_headers`
writes a record matrix's headers, :func:`record_ids` reads them, and
``pack`` / ``unpack`` are their one-row case.  Which header a stream
carries is the codec's size rule (:mod:`repro.transfer.codec`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Optional, Tuple, Type, TypeVar

import numpy as np

from repro.errors import ProtocolError

#: Size of the legacy packet header in bytes (three uint32 fields).
HEADER_SIZE = 12

#: Size of the block-aware header variant (legacy fields + uint32 block).
BLOCK_HEADER_SIZE = 16

#: Exclusive upper bound of every uint32 header field.
SERIAL_MODULUS = 2 ** 32


def stamp_headers(records: np.ndarray, header_size: int, indices: Any,
                  serials: Any, group: int, blocks: Any) -> None:
    """Write the headers of a ``(n, header_size + P)`` uint8 record
    matrix in one pass: big-endian u4 ``index``, ``serial``, ``group``
    and — under the 16-byte header only — ``block``.  The ids are
    length-``n`` arrays or scalars."""
    fields = np.empty((len(records), header_size // 4), dtype=">u4")
    fields[:, 0] = indices
    fields[:, 1] = serials
    fields[:, 2] = group
    if header_size == BLOCK_HEADER_SIZE:
        fields[:, 3] = blocks
    records[:, :header_size] = fields.view(np.uint8)


def _fields(records: np.ndarray, header_size: int) -> np.ndarray:
    """The header fields of a record matrix, one int64 column each."""
    return records[:, :header_size].view(">u4").astype(np.int64)


def record_ids(records: np.ndarray, header_size: int
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(blocks, indices, serials)`` of a record matrix's headers as
    int64 arrays, in one pass (block 0 under the 12-byte header).
    Nothing is checked against a geometry: that is the receiver's."""
    fields = _fields(records, header_size)
    blocks = (fields[:, 3] if header_size == BLOCK_HEADER_SIZE
              else np.zeros(len(records), dtype=np.int64))
    return blocks, fields[:, 0], fields[:, 1]


_H = TypeVar("_H", bound="_Header")


class _Header:
    """What both header shapes share: the uint32 range check, and
    ``pack`` / ``unpack`` as one row of :func:`stamp_headers` and of
    the column read behind :func:`record_ids`."""

    header_size: ClassVar[int]
    index: int
    serial: int
    group: int
    block: int

    def __post_init__(self) -> None:
        for field, value in vars(self).items():
            if not 0 <= value < SERIAL_MODULUS:
                raise ProtocolError(
                    f"header field {field}={value} outside uint32 range")

    def pack(self) -> bytes:
        """Serialise to the ``header_size``-byte wire format."""
        row = np.empty((1, self.header_size), dtype=np.uint8)
        stamp_headers(row, self.header_size, self.index, self.serial,
                      self.group, self.block)
        return row.tobytes()

    @classmethod
    def unpack(cls: Type[_H], data: bytes) -> _H:
        """Parse the leading ``header_size`` bytes of ``data``."""
        if len(data) < cls.header_size:
            raise ProtocolError(
                f"{cls.__name__} needs {cls.header_size} bytes, "
                f"got {len(data)}")
        row = np.frombuffer(data, dtype=np.uint8, count=cls.header_size)
        return cls(*_fields(row[None], cls.header_size)[0].tolist())


@dataclass(frozen=True)
class PacketHeader(_Header):
    """The legacy 12-byte header tag of every encoding packet."""

    index: int
    serial: int
    group: int = 0
    header_size: ClassVar[int] = HEADER_SIZE

    @property  # type: ignore[override]
    def block(self) -> int:
        """Block id of a legacy header: always 0 (a single-block stream)."""
        return 0


@dataclass(frozen=True)
class BlockHeader(_Header):
    """The 16-byte block-aware header variant.

    Identical to :class:`PacketHeader` for its first 12 bytes; the
    trailing uint32 carries the block id, so ``(block, index)`` names an
    encoding packet of a segmented object.  Multi-block streams must use
    this variant; single-block streams stay on the byte-compatible
    legacy header.
    """

    index: int
    serial: int
    group: int = 0
    block: int = 0
    header_size: ClassVar[int] = BLOCK_HEADER_SIZE


class HeaderSequencer:
    """Stamps consecutive transmission serials into packet headers.

    The serial/group bookkeeping every fountain server needs is
    identical whether the stream cycles a finite encoding
    (:class:`~repro.fountain.carousel.CarouselServer`) or pours
    unbounded droplets
    (:class:`~repro.fountain.rateless.RatelessServer`): each emitted
    packet gets the next serial number and the server's group tag.
    Servers own *which* encoding index goes out next; this owns the
    header around it.

    One sequencer may be *shared* by several servers (the per-block
    sub-servers of a :class:`~repro.transfer.server.TransferServer`),
    which keeps serials strictly monotone across the whole striped
    stream.  Serials are transmission counters, not identifiers, so on
    reaching ``2**32`` they wrap to 0 — receivers use serial *gaps* to
    estimate loss and a once-per-4-billion-packets wrap never looks
    like loss at any plausible window size.
    """

    def __init__(self, group: int = 0, start_serial: int = 0):
        if not 0 <= group < SERIAL_MODULUS:
            raise ProtocolError(f"group {group} outside uint32 range")
        if not 0 <= start_serial < SERIAL_MODULUS:
            raise ProtocolError(
                f"start_serial {start_serial} outside uint32 range")
        self.group = group
        self._start_serial = start_serial
        self._serial = start_serial

    @property
    def serial(self) -> int:
        """The serial the next emitted packet will carry."""
        return self._serial

    def next_header(self, index: int, block: Optional[int] = None
                    ) -> "PacketHeader | BlockHeader":
        """The header for encoding packet ``index``; advances the serial.

        With ``block=None`` (single-block streams) this emits the legacy
        12-byte :class:`PacketHeader`; otherwise the 16-byte
        :class:`BlockHeader` stamped with the block id.
        """
        header = (PacketHeader(index, self._serial, self.group)
                  if block is None else
                  BlockHeader(index, self._serial, self.group, block))
        self._serial = (self._serial + 1) % SERIAL_MODULUS
        return header

    def take(self, count: int) -> np.ndarray:
        """The serials of the next ``count`` packets; advances past them.

        The batched twin of ``count`` :meth:`next_header` calls, for
        callers that stamp a whole window of headers in one pass.
        """
        serials = (self._serial
                   + np.arange(count, dtype=np.int64)) % SERIAL_MODULUS
        self._serial = (self._serial + count) % SERIAL_MODULUS
        return serials

    def retreat(self, count: int) -> None:
        """Hand the last ``count`` serials back: a sender that stamped a
        window and was stopped before all of it reached the wire re-uses
        them for what it sends next."""
        self._serial = (self._serial - count) % SERIAL_MODULUS

    def reset(self) -> None:
        """Rewind to the starting serial (a fresh session)."""
        self._serial = self._start_serial


@dataclass(frozen=True)
class EncodingPacket:
    """A header (legacy or block-aware) plus its fixed-length payload."""

    header: "PacketHeader | BlockHeader"
    payload: np.ndarray

    @property
    def index(self) -> int:
        return self.header.index

    @property
    def block(self) -> int:
        """Block id this packet encodes (0 on a legacy header)."""
        return self.header.block

    def to_bytes(self) -> bytes:
        """Serialise header and payload."""
        return self.header.pack() + np.ascontiguousarray(
            self.payload).tobytes()

    @classmethod
    def from_bytes(cls, data: bytes,
                   block_aware: bool = False) -> "EncodingPacket":
        """Parse a packet serialised by :meth:`to_bytes`.

        The wire format is not self-describing (the paper's header has
        no version field), so the caller must know whether the stream
        carries legacy 12-byte or block-aware 16-byte headers — the
        codec's :attr:`~repro.transfer.codec.ObjectCodec.block_aware`
        says which.
        """
        header: "PacketHeader | BlockHeader" = (
            BlockHeader if block_aware else PacketHeader).unpack(data)
        payload = np.frombuffer(data[header.header_size:],
                                dtype=np.uint8).copy()
        return cls(header=header, payload=payload)
