"""Fountain client: receive packets until the source is reconstructed.

Section 7.2 describes two client decoding protocols:

* **incremental** — "the client performs preliminary decoding operations
  after each packet arrives"; completion is detected the instant enough
  packets are in.
* **statistical** — "the client waits until a fixed number of packets
  arrive from which it is likely that the source can be reconstructed.
  If the quantity of packets is insufficient, it acquires more packets";
  the paper chose this for its prototype as "simpler and sufficiently
  fast in practice".

Both are one loop over one
:class:`~repro.codes.registry.IncrementalDecoder`; the protocol is only
a *choice of decoder*: what :func:`~repro.codes.registry.incremental_decoder`
hands back (the native Tornado / LT / Raptor peeling decoders, the
generic :class:`~repro.codes.registry.SetDecoder` for every other code),
or a ``SetDecoder`` over *any* code whose decodability check waits for
the paper's fixed packet count.  The decoder is the only memory of what
arrived — it validates and dedups ids, counts the distinct ones and
bounds how many more are needed; the client only counts receptions
prior to reconstruction and sizes its batches.  For a rateless code the
packet ``index`` is the droplet id; the client neither knows nor cares
that the stream has no end.
"""

from __future__ import annotations

import enum
import math
from typing import Optional

import numpy as np

from repro.codes.base import ErasureCode
from repro.codes.registry import (
    IncrementalDecoder,
    SetDecoder,
    incremental_decoder,
)
from repro.errors import DecodeFailure, ParameterError
from repro.fountain.metrics import ReceptionStats
from repro.fountain.packets import EncodingPacket


class ClientMode(enum.Enum):
    """Client decode strategies of paper Section 7.2."""

    INCREMENTAL = "incremental"
    STATISTICAL = "statistical"


class FountainClient:
    """Consumes encoding packets and reconstructs the source block.

    Parameters
    ----------
    code:
        The (shared) erasure code.
    mode:
        Decode strategy; see :class:`ClientMode`.
    statistical_margin:
        In statistical mode, the first decode attempt happens after
        ``(1 + margin) * k`` distinct packets; each failed attempt waits
        for ``retry_step`` more distinct packets.
    payload_size:
        Payload length; ``None`` for structural (index-only) runs.  A
        client left at ``None`` whose first packet does carry a payload
        sizes its decoder from that payload.
    """

    def __init__(self, code: ErasureCode,
                 mode: ClientMode = ClientMode.INCREMENTAL,
                 statistical_margin: float = 0.05,
                 retry_step: int = 8,
                 payload_size: Optional[int] = None):
        if statistical_margin < 0:
            raise ParameterError("statistical_margin must be >= 0")
        self.code = code
        self.mode = mode
        self.statistical_margin = statistical_margin
        self.retry_step = retry_step
        self.payload_size = payload_size
        field = getattr(code, "field", None)
        #: one payload symbol of a wire record: a byte, or two for a
        #: Reed-Solomon code over GF(2^16).
        self._symbol = np.dtype(np.uint8 if field is None else field.dtype)
        #: packets received prior to reconstruction, repeats included.
        self.total_received = 0
        #: the one memory of what arrived (ids, distinct count, deficit).
        self.decoder = self._new_decoder()

    def _new_decoder(self) -> IncrementalDecoder:
        """The decoder :attr:`mode` selects — its only consumer."""
        if self.mode is ClientMode.STATISTICAL:
            return SetDecoder(
                self.code, payload_size=self.payload_size,
                first_attempt=math.ceil(
                    (1 + self.statistical_margin) * self.code.k),
                retry_step=self.retry_step)
        return incremental_decoder(self.code, payload_size=self.payload_size)

    def _sized_for(self, payloads: Optional[np.ndarray]) -> IncrementalDecoder:
        """The decoder — re-built first, while still empty, when a
        client constructed without a payload size is handed payloads."""
        if (payloads is not None and self.payload_size is None
                and not self.total_received):
            self.payload_size = int(np.shape(payloads)[-1])
            self.decoder = self._new_decoder()
        return self.decoder

    # -- feeding ---------------------------------------------------------------

    def receive(self, packet: EncodingPacket) -> bool:
        """Ingest one packet, its payload bytes read as the code's
        symbols; returns True once the source is decodable."""
        return self.receive_index(packet.index,
                                  packet.payload.view(self._symbol))

    def receive_index(self, index: int,
                      payload: Optional[np.ndarray] = None) -> bool:
        """Ingest by raw encoding index: :meth:`receive_many` of one row."""
        return self.receive_many((index,), None if payload is None
                                 else np.asarray(payload)[np.newaxis])

    def receive_many(self, indices: np.ndarray,
                     payloads: Optional[np.ndarray] = None) -> bool:
        """Ingest packets in arrival order; True once decodable.

        Matches one-at-a-time feeding exactly: packets arriving after
        completion are neither counted nor decoded, and the reception
        counters at the moment of completion equal what feeding one
        packet per call would have produced.  The guarantee rests on
        :attr:`min_additional` — a provable lower bound on the arrivals
        still needed — so a chunk of that size can only complete on its
        *last* packet, exactly where sequential feeding would stop.
        """
        indices = np.asarray(indices, dtype=np.int64)
        decoder = self._sized_for(payloads)
        pos = 0
        while pos < indices.size and not self.is_complete:
            take = max(1, min(self.min_additional, indices.size - pos))
            decoder.add_packets(
                indices[pos:pos + take],
                None if payloads is None else payloads[pos:pos + take])
            self.total_received += take
            pos += take
        return self.is_complete

    # -- results ---------------------------------------------------------------

    @property
    def is_complete(self) -> bool:
        return self.decoder.is_complete

    @property
    def distinct_received(self) -> int:
        return self.decoder.packets_added

    @property
    def min_additional(self) -> int:
        """Lower bound on further arrivals needed before completion —
        the decoder's ``min_additional_packets``.  Batch feeders
        (:meth:`receive_many`, the simulation drivers) cap chunks at it
        so no chunk can complete before its final packet, which keeps
        batched reception counters equal to sequential ones."""
        return self.decoder.min_additional_packets

    def stats(self) -> ReceptionStats:
        """Reception-efficiency counters up to now."""
        return ReceptionStats(
            source_packets=self.code.k,
            distinct_received=self.distinct_received,
            total_received=self.total_received,
        )

    def source_data(self) -> np.ndarray:
        """The reconstructed ``(k, P)`` source block; raises
        :class:`~repro.errors.DecodeFailure` when not yet complete (and
        the decoder refuses a structural run, which kept no payloads)."""
        if not self.is_complete:
            raise DecodeFailure("client has not received enough packets")
        return self.decoder.source_data()
