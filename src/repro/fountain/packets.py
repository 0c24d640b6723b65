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
encoding.  Serials are a stream's emission count mod ``2**32``
(:class:`~repro.transfer.server.TransferServer` numbers every stream).

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
from typing import Any, Optional, Tuple

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
    Nothing is checked against a geometry: that is the receiver's.

    Anything but a 2-D uint8 matrix with at least ``header_size``
    columns, under a 12- or 16-byte header, raises
    :class:`~repro.errors.ProtocolError`; what it allocates is the
    three id arrays and, for a matrix whose rows are not contiguous, a
    copy of the header columns.
    """
    if header_size not in (HEADER_SIZE, BLOCK_HEADER_SIZE):
        raise ProtocolError(
            f"a record header is {HEADER_SIZE} or {BLOCK_HEADER_SIZE} "
            f"bytes, not {header_size}")
    records = np.asarray(records)
    if (records.dtype != np.uint8 or records.ndim != 2
            or records.shape[1] < header_size):
        raise ProtocolError(
            f"a record matrix is uint8 rows of at least {header_size} "
            f"bytes, got {records.dtype} of shape {records.shape}")
    head = records[:, :header_size]
    if head.strides[1] != 1:
        head = np.ascontiguousarray(head)
    fields = head.view(">u4").astype(np.int64)
    blocks = (fields[:, 3] if header_size == BLOCK_HEADER_SIZE
              else np.zeros(len(records), dtype=np.int64))
    return blocks, fields[:, 0], fields[:, 1]


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
        header = HEADER_SIZE if block is None else BLOCK_HEADER_SIZE
        body = np.ascontiguousarray(payload).view(np.uint8).reshape(-1)
        record = np.empty((1, header + body.size), dtype=np.uint8)
        record[0, header:] = body
        stamp_headers(record, header, index, serial, group, block)
        return cls(record[0], header)

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
