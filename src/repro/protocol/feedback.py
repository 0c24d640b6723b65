"""The receiver→sender control plane: compact feedback reports.

The paper's fountain is deliberately open-loop — "no feedback" is the
headline — but ROADMAP's channel-aware delivery needs a whisper of it:
each receiver periodically tells the sender how lossy its channel looks
and how far its decode has progressed, and an
:class:`~repro.protocol.adaptive.AdaptivePolicy` aggregates those
whispers into rate and schedule decisions.  One report is a single
small datagram body, cheap enough that even a 100k-receiver swarm's
feedback stays a rounding error next to the data stream.

Wire format (version 1, all big-endian)::

    +---------+-------+-------------+-----------+------+----------+
    | version | flags | receiver_id | receivers | loss | progress |
    | u8      | u8    | u32         | u16       | u16  | u16      |
    +---------+-------+-------------+-----------+------+----------+
    | packets_used | blocks_total | n_lagging | (block, deficit)* |
    | u32          | u16          | u8        | n × (u16, u16)    |
    +--------------+--------------+-----------+-------------------+

``loss`` and ``progress`` are fractions quantised onto ``u16``
(``round(f * 65535)``); ``flags`` bit 0 marks a complete decode.  The
lagging list carries the receiver's worst blocks — ids with their
packet deficits (:meth:`~repro.transfer.client.TransferClient.
block_min_additional`), deficits clamped to ``u16`` — so an adaptive
sender can reweight its cross-block schedule toward whichever blocks
the population is actually stuck on.

Loss estimation rides the existing header: transmission serials are
strictly monotone across a striped stream (the stream's emission
count mod ``2**32``), so the gap between
the serial span a receiver observed and the records it actually got *is*
the channel's loss, no extra wire bytes needed.  :class:`LossEstimator`
folds per-batch gap measurements into an EWMA.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Tuple

from repro.errors import ProtocolError

__all__ = [
    "FEEDBACK_VERSION",
    "MAX_LAGGING_BLOCKS",
    "FeedbackReport",
    "LossEstimator",
    "report_from_client",
]

#: wire-format version byte of :class:`FeedbackReport`.
FEEDBACK_VERSION = 1

#: worst blocks a report names (bounds the frame at 47 bytes).
MAX_LAGGING_BLOCKS = 8

#: :class:`LossEstimator`'s forgetting factor, per serial.
LOSS_ALPHA = 0.01

#: serials are u32: the stream's emission count mod ``2**32``.
_SERIAL_RING = 1 << 32

_HEAD = struct.Struct(">BBIHHHIHB")
_PAIR = struct.Struct(">HH")

_FLAG_COMPLETE = 0x01


def _q16(fraction: float) -> int:
    """Quantise a fraction onto u16 (clamped to [0, 1])."""
    return round(min(1.0, max(0.0, float(fraction))) * 0xFFFF)


@dataclass(frozen=True)
class FeedbackReport:
    """One receiver's channel and decode state, datagram-sized.

    Parameters
    ----------
    receiver_id:
        Stable identifier the sender uses to key staleness decay.
    loss:
        The receiver's loss-rate EWMA (fraction of serials missed).
    progress:
        Byte-fraction of the object whose blocks have decoded.
    packets_used:
        Packets the receiver has consumed so far.
    blocks_total:
        Block count of the transfer the receiver is decoding.
    complete:
        Whether every block has decoded (the sender may stop).
    receivers:
        Count hint — how many downstream receivers this report speaks
        for (1 for a plain receiver, more for an aggregating proxy or
        a simulated cohort).
    lagging:
        Up to :data:`MAX_LAGGING_BLOCKS` ``(block, deficit)`` pairs,
        worst deficit first.
    """

    receiver_id: int
    loss: float = 0.0
    progress: float = 0.0
    packets_used: int = 0
    blocks_total: int = 1
    complete: bool = False
    receivers: int = 1
    lagging: Tuple[Tuple[int, int], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if len(self.lagging) > MAX_LAGGING_BLOCKS:
            raise ProtocolError(
                f"report names {len(self.lagging)} lagging blocks, "
                f"limit is {MAX_LAGGING_BLOCKS}")
        for block, deficit in self.lagging:
            if not 0 <= block <= 0xFFFF or not 0 <= deficit <= 0xFFFF:
                raise ProtocolError(
                    f"lagging pair ({block}, {deficit}) outside u16 range")

    def encode(self) -> bytes:
        """Serialise to the version-1 wire frame body."""
        flags = _FLAG_COMPLETE if self.complete else 0
        head = _HEAD.pack(FEEDBACK_VERSION, flags,
                          self.receiver_id & 0xFFFFFFFF,
                          min(self.receivers, 0xFFFF),
                          _q16(self.loss), _q16(self.progress),
                          min(self.packets_used, 0xFFFFFFFF),
                          min(self.blocks_total, 0xFFFF),
                          len(self.lagging))
        return head + b"".join(_PAIR.pack(b, d) for b, d in self.lagging)

    @classmethod
    def decode(cls, body: bytes) -> "FeedbackReport":
        """Parse a wire frame body; raises ProtocolError on bad frames."""
        if len(body) < _HEAD.size:
            raise ProtocolError(
                f"feedback frame needs {_HEAD.size} bytes, got {len(body)}")
        (version, flags, receiver_id, receivers, loss_q, progress_q,
         packets_used, blocks_total, n_lagging) = _HEAD.unpack_from(body)
        if version != FEEDBACK_VERSION:
            raise ProtocolError(
                f"unsupported feedback version {version} "
                f"(speaking {FEEDBACK_VERSION})")
        if len(body) != _HEAD.size + n_lagging * _PAIR.size:
            raise ProtocolError(
                f"feedback frame claims {n_lagging} lagging blocks but "
                f"carries {len(body) - _HEAD.size} trailing bytes")
        lagging = tuple(
            _PAIR.unpack_from(body, _HEAD.size + i * _PAIR.size)
            for i in range(n_lagging))
        return cls(receiver_id=receiver_id, loss=loss_q / 0xFFFF,
                   progress=progress_q / 0xFFFF,
                   packets_used=packets_used, blocks_total=blocks_total,
                   complete=bool(flags & _FLAG_COMPLETE),
                   receivers=receivers, lagging=lagging)


class LossEstimator:
    """Serial-gap loss estimation with exponential forgetting.

    Transmission serials are consecutive across the whole striped
    stream, so between two observations the span of serials that went
    past is ``newest - last_seen`` while the records that arrived are
    countable — the shortfall is loss.  Serials are compared by their
    forward distance mod ``2**32``, so the estimate runs on across the
    wrap.  The estimate is a *ratio of decayed sums* (received over
    span, each forgotten at :data:`LOSS_ALPHA` per serial), not an
    average of per-batch ratios: ratio-of-ratios is badly biased when
    batches are small (a one-packet batch is either 0% or ~100% loss).
    It is unbiased at any batching (``TestLossEstimator.test_error_band``
    pins its mean and p90 error), but not batching-invariant: a batch's
    arrivals are decayed as if all came at its end, so one 20,000-slot
    Bernoulli(0.1) stream reads 0.054 fed a serial at a time and 0.077
    fed 1,024 at a time.
    """

    def __init__(self) -> None:
        self._last_serial: Optional[int] = None
        self._span_acc = 0.0
        self._got_acc = 0.0

    @property
    def loss(self) -> float:
        """The current loss-rate estimate (0.0 before any gap data)."""
        if self._span_acc <= 0.0:
            return 0.0
        return max(0.0, 1.0 - self._got_acc / self._span_acc)

    def observe(self, serials: Sequence[int]) -> float:
        """Fold one batch of received serials into the estimate."""
        if len(serials) == 0:
            return self.loss
        base = serials[0] if self._last_serial is None else self._last_serial
        half = _SERIAL_RING >> 1
        # signed distance from base, forward across the wrap
        ahead = [(s - base + half) % _SERIAL_RING - half for s in serials]
        newest = max(ahead)
        if self._last_serial is None:
            span = newest - min(ahead) + 1
            got = len(serials)
        else:
            span = newest
            got = sum(1 for a in ahead if a > 0)
            if span <= 0:        # reordered stragglers only
                return self.loss
        self._last_serial = (base + newest) % _SERIAL_RING
        decay = (1.0 - LOSS_ALPHA) ** span
        self._span_acc = self._span_acc * decay + span
        self._got_acc = self._got_acc * decay + got
        return self.loss


def report_from_client(client: Any, *, receiver_id: int = 0,
                       loss: float = 0.0) -> FeedbackReport:
    """Build a report from a live transfer client's decode state.

    ``client`` is anything with the
    :class:`~repro.transfer.client.TransferClient` progress surface
    (``progress``, ``is_complete``, ``incomplete_blocks``,
    ``block_min_additional``, ``num_blocks``, and ``total_received``,
    the report's ``packets_used``) — in the tree, the
    transfer client itself, the one receiver over per-block decoders.
    The report speaks for that one receiver (``receivers=1``).
    """
    deficits = [(int(b), min(0xFFFF, int(client.block_min_additional(b))))
                for b in client.incomplete_blocks
                if int(b) <= 0xFFFF]
    deficits.sort(key=lambda pair: (-pair[1], pair[0]))
    return FeedbackReport(
        receiver_id=receiver_id,
        loss=loss,
        progress=float(client.progress),
        packets_used=int(client.total_received),
        blocks_total=min(0xFFFF, int(client.num_blocks)),
        complete=bool(client.is_complete),
        lagging=tuple(deficits[:MAX_LAGGING_BLOCKS]),
    )
