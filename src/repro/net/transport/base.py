"""The transport contract: one way to move a packet stream anywhere.

A *transport* carries the wire records of a sender session's
:class:`~repro.transfer.server.TransferServer` to any number of
receiver subscriptions.  Three interchangeable
implementations ship behind this contract:

* :class:`~repro.net.transport.memory.MemoryTransport` — in-process
  queues with per-subscriber loss channels (tests, simulations).
* :class:`~repro.net.transport.file.FileTransport` — a ``stream.pkt``
  plus ``manifest.json`` directory (the `repro send`/`repro recv`
  shape).
* :class:`~repro.net.transport.udp.UdpTransport` — real UDP datagrams
  from one blocking socket, unicast or loopback multicast, with
  token-bucket pacing and optional Bernoulli loss injection.

Senders call ``transport.serve(session)`` with any object exposing the
sender-session surface (``source``, ``manifest()``, ``codec``,
``total_k`` — see :class:`repro.api.SenderSession`).  Every serve draws
whole windows from ``session.source`` (UDP ``record_window``; memory and
file ``draw_ids``, then ``records`` of only the rows they deliver) and
hands back (``unwind``) whatever part of the last one it did not send;
none pulls ``packets()``.  Receivers consume a :class:`Subscription`,
which feeds raw wire records (header + payload) into a
:class:`repro.api.ReceiverSession`.

Framing
-------

File and memory transports move bare fixed-size records.  Datagram
transports wrap every record in a tiny length-prefixed frame so a
datagram is self-delimiting and can carry control frames in-band::

    +------+----------+------------------+
    | type | length   | body             |
    | u8   | u16 (BE) | `length` bytes   |
    +------+----------+------------------+

A datagram carries a *run* of frames, back to back (:func:`iter_frames`
walks it).  Nothing in a fountain ties one encoding packet to one
datagram — a receiver does not care which packets arrive — and a
system call costs the same for 150 bytes as for 1,500, so a sender
packs consecutive data frames into one datagram up to
:data:`DATAGRAM_BUDGET` = 1,472 bytes: a 1,500-byte Ethernet MTU less
the IPv4 and UDP headers, the most a datagram can hold without being
fragmented on the common path.  Ten 128-byte-payload frames share a
datagram, two of the paper's 500-byte ones; a frame wider than half
the budget travels alone.  With the default ``interleave`` schedule the
frames that share a datagram belong to different blocks, so a lost
datagram is still about one erasure per block.  A manifest frame is
always a datagram of its own.

Where Linux accepts its UDP offloads, the system calls carry runs of
datagrams too, without changing a byte on the wire.  The UDP sender
hands a destination's consecutive equal-sized data datagrams (and one
shorter last one) to the kernel in one ``UDP_SEGMENT`` send, which the
kernel cuts back into exactly those datagrams — the boundaries, bytes
and order a ``sendto`` per datagram would give.  The receiver turns on
``UDP_GRO``, so such a run can arrive as one buffer with its segment
size attached; it is taken apart at that size and every datagram is
judged as if it had come alone.  Where a kernel refuses either offload,
the same datagrams go one per system call.

``FRAME_DATA`` bodies are wire records (the existing 12/16-byte header
plus payload, exactly as written to ``stream.pkt``); ``FRAME_MANIFEST``
bodies are the UTF-8 JSON manifest, re-sent periodically so a receiver
can join mid-stream and still learn the object geometry;
``FRAME_FEEDBACK`` bodies are :class:`~repro.protocol.feedback.
FeedbackReport` frames travelling the *other* way — the receiver→sender
control plane an adaptive sender listens on.  Feedback is best-effort
by design: a transport without a return path (file) simply drops it,
and a fountain sender missing every report just stays open-loop.
"""

from __future__ import annotations

import json
import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ProtocolError

__all__ = [
    "DATAGRAM_BUDGET",
    "EMISSION_LIMIT_FACTOR",
    "FEED_BATCH",
    "FRAME_DATA",
    "FRAME_FEEDBACK",
    "FRAME_MANIFEST",
    "MAX_FRAME_BODY",
    "SERVE_WINDOW",
    "ServeReport",
    "Subscription",
    "Transport",
    "frame_head",
    "frame_records",
    "iter_frames",
    "matrix_batches",
    "pack_frame",
    "parse_manifest",
    "unframe_records",
]

#: emission budget per source packet before a serve is declared stuck.
EMISSION_LIMIT_FACTOR = 200

#: most packets a serve draws from its source in one window (memory and
#: file also cross the channel with and feed their shadows a window at a
#: time); bounds what a window holds in memory however large the
#: emission count is.
SERVE_WINDOW = 1024

#: most bytes of data frames a sender packs into one datagram: one
#: Ethernet MTU less the IPv4 and UDP headers (1500 - 20 - 8; see
#: "Framing" above).
DATAGRAM_BUDGET = 1472

#: records per ingest batch for transports without a backlog signal.
FEED_BATCH = 256

#: frame type carrying one wire packet record.
FRAME_DATA = 0x01
#: frame type carrying the UTF-8 JSON manifest.
FRAME_MANIFEST = 0x02
#: frame type carrying a receiver→sender feedback report.
FRAME_FEEDBACK = 0x03

_FRAME_HEAD = struct.Struct(">BH")
#: the longest frame body the u16 length prefix states.
MAX_FRAME_BODY = 0xFFFF


def frame_head(frame_type: int, length: int) -> bytes:
    """The three bytes in front of a ``length``-byte frame body."""
    if length > MAX_FRAME_BODY:
        raise ProtocolError(
            f"frame body of {length} bytes exceeds the u16 length "
            "prefix; shrink the packet size")
    return _FRAME_HEAD.pack(frame_type, length)


def pack_frame(frame_type: int, body: bytes) -> bytes:
    """One length-prefixed frame: type byte, u16 body length, body."""
    return frame_head(frame_type, len(body)) + body


def frame_records(records: np.ndarray) -> np.ndarray:
    """A window of equal-size wire records as ``FRAME_DATA`` frames.

    The batched twin of ``pack_frame(FRAME_DATA, record)``: row ``i`` of
    the returned ``(n, 3 + size)`` array is byte for byte the frame
    :func:`pack_frame` builds for record ``i``, so a sender slices
    datagrams out of one buffer.
    """
    count, size = records.shape
    frames = np.empty((count, _FRAME_HEAD.size + size), dtype=np.uint8)
    frames[:, :_FRAME_HEAD.size] = np.frombuffer(
        frame_head(FRAME_DATA, size), dtype=np.uint8)
    frames[:, _FRAME_HEAD.size:] = records
    return frames


def unframe_records(buffer: bytes, size: int) -> Optional[np.ndarray]:
    """The records of a buffer that is nothing but ``FRAME_DATA`` frames
    with ``size``-byte bodies, back to back; ``None`` for any other.

    The inverse of :func:`frame_records` and the batched twin of
    :func:`iter_frames` for the one shape a data stream has: every frame
    head is checked in one comparison, and the ``(n, size)`` result is a
    view into ``buffer``, not a copy.
    """
    head = np.frombuffer(frame_head(FRAME_DATA, size), dtype=np.uint8)
    step = head.size + size
    if len(buffer) % step:
        return None
    frames = np.frombuffer(buffer, dtype=np.uint8).reshape(-1, step)
    if not (frames[:, :head.size] == head).all():
        return None
    return frames[:, head.size:]


def iter_frames(datagram: bytes) -> Iterator[Tuple[int, bytes]]:
    """Yield ``(type, body)`` for every frame packed into a datagram.

    Raises :class:`~repro.errors.ProtocolError` on truncated framing —
    a datagram either parses completely or is rejected whole (UDP
    delivers datagrams intact or not at all, so partial frames mean a
    non-repro sender).
    """
    offset = 0
    total = len(datagram)
    while offset < total:
        if total - offset < _FRAME_HEAD.size:
            raise ProtocolError(
                f"truncated frame header at byte {offset} of a "
                f"{total}-byte datagram")
        frame_type, length = _FRAME_HEAD.unpack_from(datagram, offset)
        offset += _FRAME_HEAD.size
        if total - offset < length:
            raise ProtocolError(
                f"frame claims {length} body bytes but only "
                f"{total - offset} remain in the datagram")
        yield frame_type, datagram[offset:offset + length]
        offset += length


def parse_manifest(body: bytes) -> dict:
    """The JSON object a manifest file's or frame's bytes spell; bytes
    that are not UTF-8 JSON (nested past the parser's recursion limit
    too) or not an object raise :class:`~repro.errors.ProtocolError`."""
    try:
        # UnicodeDecodeError and JSONDecodeError are ValueErrors
        manifest = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as err:
        raise ProtocolError(f"manifest is not UTF-8 JSON: {err}") from None
    if not isinstance(manifest, dict):
        raise ProtocolError("manifest is not a JSON object")
    return manifest


def matrix_batches(records: np.ndarray) -> Iterator[np.ndarray]:
    """A record matrix as ingest batches: views of at most
    :data:`FEED_BATCH` rows, in order."""
    for start in range(0, len(records), FEED_BATCH):
        yield records[start:start + FEED_BATCH]


@dataclass(frozen=True)
class ServeReport:
    """Outcome of one :meth:`Transport.serve` call."""

    transport: str
    #: packets pulled from the session's source.
    emitted: int
    #: records actually placed on the medium (after injected loss),
    #: summed over all destinations/subscribers.
    delivered: int
    #: wall-clock seconds the serve ran.
    duration: float
    #: destinations (UDP) or subscribers (memory) served; 1 for file.
    destinations: int = 1
    #: manifest frames interleaved into the stream (datagram transports).
    manifest_frames: int = 0
    #: socket errors observed while sending (ICMP unreachable etc.) —
    #: survivable for a fountain, but visible to operators.
    socket_errors: int = 0
    #: receiver feedback reports decoded during the serve (adaptive
    #: senders; always 0 on transports without a return path).
    feedback_frames: int = 0
    #: datagrams heard on the reply port that were not a decodable
    #: feedback report: bad framing, a non-feedback frame type, or a
    #: feedback body that fails to decode (bodies are only decoded when
    #: the serve listens, i.e. with ``policy=`` or ``feedback=``).
    malformed_frames: int = 0
    #: data datagrams handed to the socket, summed over destinations
    #: (``delivered / datagrams`` is the coalescing factor; 0 on
    #: transports that move bare records).
    datagrams: int = 0

    @property
    def dropped(self) -> int:
        """Records suppressed by injected loss: every emission goes to
        every destination, and those not delivered were dropped."""
        return self.emitted * self.destinations - self.delivered

    @property
    def packets_per_second(self) -> float:
        """Delivered records per second of serving."""
        if self.duration <= 0:
            return 0.0
        return self.delivered / self.duration


class Subscription(ABC):
    """The receiver side of a transport: a manifest plus a record feed."""

    @abstractmethod
    def manifest(self, timeout: Optional[float] = None) -> dict:
        """The transfer manifest (waits for it on live transports)."""

    @abstractmethod
    def record_batches(self, timeout: Optional[float] = None
                       ) -> Iterator[Union[List[bytes], np.ndarray]]:
        """Raw wire records (header + payload) in ingest batches, in
        arrival order.

        The feeding surface: each yielded batch becomes one
        ``receive_records`` call on the session.  A batch is a sequence
        of records — a list of ``bytes``, or a 2-D uint8 array with one
        record per row (``len`` counts records either way).  Finite
        transports (file, memory) hold their records as one matrix and
        yield views of at most :data:`FEED_BATCH` rows of it
        (:func:`matrix_batches`), stopping at end of stream; the UDP
        subscription yields one batch per socket drain, so a poll's
        whole queue reaches the decoder in a single ingest pass, and
        raises :class:`~repro.errors.ProtocolError` after ``timeout``
        seconds of silence.
        """

    def records(self, timeout: Optional[float] = None) -> Iterator[bytes]:
        """The records of :meth:`record_batches`, one ``bytes`` each."""
        for batch in self.record_batches(timeout=timeout):
            if isinstance(batch, np.ndarray):
                batch = [row.tobytes() for row in batch]
            yield from batch

    def send_feedback(self, report: Any) -> bool:
        """Send a feedback report back to the sender, best-effort.

        Returns True when the report was placed on a return path.  The
        default is the documented no-op — transports without a
        receiver→sender channel (recorded files) drop feedback, and a
        fountain works open-loop regardless.  ``report`` is a
        :class:`~repro.protocol.feedback.FeedbackReport`.
        """
        return False

    def feed(self, session: Any,
             timeout: Optional[float] = None) -> bool:
        """Drive a receiver session from this feed until it completes.

        Returns the session's completeness; stops early on completion,
        at end of stream for finite transports, or on timeout for live
        ones.  The session (:class:`repro.api.ReceiverSession` or a
        stand-in with its ``is_complete`` / ``receive_records`` surface)
        is driven one ingest batch per call.

        Sessions with reporting enabled (``maybe_report`` returning a
        due :class:`~repro.protocol.feedback.FeedbackReport`) have every
        report due forwarded through :meth:`send_feedback` after every
        ingest batch — including the final complete-report, so an
        adaptive sender hears about the finished decode.
        """
        reporter = getattr(session, "maybe_report", None)

        def relay() -> None:
            if reporter is not None:
                for report in iter(reporter, None):
                    self.send_feedback(report)

        if session.is_complete:
            relay()
        else:
            for batch in self.record_batches(timeout=timeout):
                done = session.receive_records(batch)
                relay()
                if done:
                    break
        return bool(session.is_complete)

    def receive(self, manifest: Optional[dict] = None,
                timeout: Optional[float] = None) -> Any:
        """Build a :class:`repro.api.ReceiverSession` and feed it."""
        from repro.api import ReceiverSession

        session = ReceiverSession(self.manifest(timeout=timeout)
                                  if manifest is None else manifest)
        self.feed(session, timeout=timeout)
        return session

    def close(self) -> None:
        """Release any OS resources (sockets); idempotent."""

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class Transport(ABC):
    """One way to move a packet stream from a sender to receivers."""

    #: short name reported in :attr:`ServeReport.transport`
    #: (``"memory"``, ``"file"``, ``"udp"``).
    name: str = "?"

    @abstractmethod
    def serve(self, session: Any, *, count: Optional[int] = None,
              **options: Any) -> ServeReport:
        """Pump the session's packet stream into the medium.

        ``count`` bounds the emissions; transports with a completion
        signal (memory, file — both can shadow the receivers
        structurally) stop on their own when ``count`` is ``None``:
        they cross whole windows, let the shadows say at which row
        completion landed, and unwind the source and the loss channels
        past the stop, so what went out is what a packet-at-a-time
        sender would have sent.  Their ``extra`` moves the stop on:
        memory counts ``extra`` more emissions after the last shadow
        completes, file ``extra`` more survivors of its channel.
        """

    @abstractmethod
    def subscribe(self, **options: Any) -> Subscription:
        """A receiver-side subscription to this transport's stream."""
