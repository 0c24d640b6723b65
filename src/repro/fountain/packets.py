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
encoding.  :class:`HeaderSequencer` owns the serial numbering all
fountain servers share.

Block-segmented transfers (:mod:`repro.transfer`) tag each packet with
the block it encodes in a 16-byte header that appends one uint32
``block`` field directly after ``group``.  Its first 12 bytes are
byte-identical to the legacy header, and single-block streams keep
emitting the plain 12-byte header, so legacy receivers and block-aware
receivers agree whenever there is only one block.

This module is the one home of the record layout: :func:`stamp_headers`
writes a record matrix's headers and :func:`record_ids` reads them.  An
:class:`EncodingPacket` is one row of such a matrix — stamped by the
first, read by the second — so a packet and a row of a record window
are the same bytes.  Which header a stream carries is the codec's size
rule (:mod:`repro.transfer.codec`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, List, Optional, Tuple

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


def record_ids(records: np.ndarray, header_size: int
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(blocks, indices, serials)`` of a record matrix's headers as
    int64 arrays, in one pass (block 0 under the 12-byte header).
    Nothing is checked against a geometry: that is the receiver's."""
    fields = records[:, :header_size].view(">u4").astype(np.int64)
    blocks = (fields[:, 3] if header_size == BLOCK_HEADER_SIZE
              else np.zeros(len(records), dtype=np.int64))
    return blocks, fields[:, 0], fields[:, 1]


class HeaderSequencer:
    """Hands out consecutive transmission serials for packet headers.

    The serial/group bookkeeping every fountain server needs is
    identical whether the stream cycles a finite encoding
    (:class:`~repro.fountain.carousel.CarouselServer`) or pours
    unbounded droplets
    (:class:`~repro.fountain.rateless.RatelessServer`): each emitted
    packet gets the next serial number and the server's group tag.
    Servers own *which* encoding index goes out next; this owns the
    serial stamped beside it.

    A :class:`~repro.transfer.server.TransferServer` stamps its whole
    striped stream from one, which keeps serials strictly monotone
    across every block.  Serials are transmission counters, not
    identifiers, so on
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

    def take(self, count: int) -> np.ndarray:
        """The serials of the next ``count`` packets; advances past them.

        The one serial draw: a window of records takes its whole run, a
        single packet ``take(1)``.
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


@dataclass(frozen=True, eq=False)
class EncodingPacket:
    """One whole wire record — header and payload — as a uint8 row.

    A record of one: :meth:`stamp` writes it with :func:`stamp_headers`,
    its ids are one :func:`record_ids` read, and :meth:`to_bytes` is the
    record itself.
    """

    record: np.ndarray
    header_size: int

    @classmethod
    def stamp(cls, payload: np.ndarray, index: int, serial: int,
              group: int = 0, block: Optional[int] = None
              ) -> "EncodingPacket":
        """The record carrying ``payload`` as encoding packet ``index``.

        ``block=None`` (a single-block stream) gets the legacy 12-byte
        header, a block id the 16-byte one.  A field outside uint32
        raises :class:`~repro.errors.ProtocolError`.
        """
        for field, value in (("index", index), ("serial", serial),
                             ("group", group),
                             ("block", 0 if block is None else block)):
            if not 0 <= value < SERIAL_MODULUS:
                raise ProtocolError(
                    f"header field {field}={value} outside uint32 range")
        return cls.stamp_rows(np.ascontiguousarray(payload)[np.newaxis],
                              index, serial, group, block)[0]

    @classmethod
    def stamp_rows(cls, payloads: np.ndarray, indices: Any, serials: Any,
                   group: int = 0, block: Optional[int] = None
                   ) -> List["EncodingPacket"]:
        """Packets over the rows of one record matrix: ``payloads[r]``
        as encoding packet ``indices[r]``, headers as :meth:`stamp`
        writes them, in one :func:`stamp_headers` pass and unchecked (a
        source's cursor and sequencer keep the fields in range)."""
        header = HEADER_SIZE if block is None else BLOCK_HEADER_SIZE
        body = np.ascontiguousarray(payloads).view(np.uint8).reshape(
            len(payloads), -1)
        records = np.empty((len(body), header + body.shape[1]),
                           dtype=np.uint8)
        records[:, header:] = body
        stamp_headers(records, header, indices, serials, group, block)
        return [cls(record, header) for record in records]

    @cached_property
    def _ids(self) -> Tuple[int, int, int]:
        """``(block, index, serial)`` of the header."""
        blocks, indices, serials = record_ids(self.record[np.newaxis],
                                              self.header_size)
        return int(blocks[0]), int(indices[0]), int(serials[0])

    @property
    def block(self) -> int:
        """Block id this packet encodes (0 on a legacy header)."""
        return self._ids[0]

    @property
    def index(self) -> int:
        return self._ids[1]

    @property
    def serial(self) -> int:
        return self._ids[2]

    @property
    def payload(self) -> np.ndarray:
        """The payload bytes: a view of the record past its header."""
        return self.record[self.header_size:]

    def to_bytes(self) -> bytes:
        """The wire record."""
        return self.record.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes,
                   block_aware: bool = False) -> "EncodingPacket":
        """Parse a record serialised by :meth:`to_bytes`.

        The wire format is not self-describing (the paper's header has
        no version field), so the caller must know whether the stream
        carries legacy 12-byte or block-aware 16-byte headers — the
        codec's :attr:`~repro.transfer.codec.ObjectCodec.block_aware`
        says which.
        """
        header = BLOCK_HEADER_SIZE if block_aware else HEADER_SIZE
        if len(data) < header:
            raise ProtocolError(
                f"a record needs {header} header bytes, got {len(data)}")
        return cls(np.frombuffer(data, dtype=np.uint8).copy(), header)
