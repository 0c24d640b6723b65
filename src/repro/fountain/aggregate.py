"""Multi-source aggregation: drink from several fountains at once.

Paper Section 8: "If the sources use ideal digital fountains to
transmit the data, clients can access multiple sources simultaneously,
and aggregate all the packets they receive to recover the data
efficiently."  :class:`MultiSourceClient` merges any number of carousel
streams that share one code; its counters expose the trade-off the
paper flags — more mirrors cut download time, while a small stretch
factor bounds how long the streams stay duplicate-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.codes.base import ErasureCode
from repro.codes.registry import feed, incremental_decoder
from repro.errors import DecodeFailure, ParameterError
from repro.fountain.metrics import ReceptionStats
from repro.net.channel import LossyChannel
from repro.net.loss import LossModel
from repro.transfer.schedule import carousel_order
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class SourceReport:
    """Per-mirror contribution statistics."""

    source_id: int
    received: int
    useful: int

    @property
    def duplicate_rate(self) -> float:
        if self.received == 0:
            return 0.0
        return 1.0 - self.useful / self.received


class MultiSourceClient:
    """Aggregates packets from several servers sharing one erasure code.

    Carousel mirrors must cycle the *same* encoding (same code, same
    seed-derived graph) but may use independent transmission orders —
    which is exactly what keeps early duplicates rare.
    """

    def __init__(self, code: ErasureCode,
                 payload_size: Optional[int] = None):
        self.code = code
        #: the one memory of what arrived; a mirror's ``useful`` packets
        #: are the ones that raised its distinct count.
        self.decoder = incremental_decoder(code, payload_size=payload_size)
        self.reports: Dict[int, SourceReport] = {}

    @property
    def is_complete(self) -> bool:
        return self.decoder.is_complete

    @property
    def total_received(self) -> int:
        return self.stats().total_received

    @property
    def distinct_received(self) -> int:
        return self.decoder.packets_added

    def receive_from(self, source_id: int, index: int,
                     payload: Optional[np.ndarray] = None) -> bool:
        """Ingest one packet attributed to a mirror; True when complete.

        An index outside the encoding raises
        :class:`~repro.errors.ParameterError` (the decoder's check) and
        is attributed to no mirror.
        """
        report = self.reports.setdefault(
            source_id, SourceReport(source_id, 0, 0))
        distinct = self.decoder.packets_added
        report.received += feed(self.decoder, (index,), None if payload
                                is None else np.asarray(payload)[np.newaxis])
        report.useful += self.decoder.packets_added - distinct
        return self.is_complete

    def stats(self) -> ReceptionStats:
        return ReceptionStats.of_decoder(self.code.k, self.decoder)


@dataclass(frozen=True)
class AggregationResult:
    """Outcome of a simulated multi-mirror download."""

    num_sources: int
    slots: int
    stats: ReceptionStats
    per_source: List[SourceReport]


def simulate_aggregate_download(code: ErasureCode,
                                num_sources: int,
                                loss_model: LossModel,
                                rng: RngLike = None,
                                max_cycles: int = 50) -> AggregationResult:
    """Download from ``num_sources`` parallel mirrors; structural only.

    One wall-clock slot carries one packet from every mirror, each
    mirror through a loss channel of its own.  Returns the completion
    slot and the aggregate reception statistics — the data behind
    examples/mirrored_servers.py.
    """
    if num_sources < 1:
        raise ParameterError("need at least one source")
    gen = ensure_rng(rng)
    cycle = np.stack([carousel_order(code.n, int(gen.integers(1 << 30)))
                      for _ in range(num_sources)], axis=1)
    channels = [LossyChannel(loss_model, gen) for _ in range(num_sources)]
    client = MultiSourceClient(code)
    for first in range(0, max_cycles * code.n, code.n):
        # a carousel cycle of verdicts per mirror, read slot-major:
        # every mirror's packet of a slot before the next slot
        delivered = np.stack([channel.delivery_mask(code.n)
                              for channel in channels], axis=1)
        for slot, sid in np.argwhere(delivered).tolist():
            if client.receive_from(sid, int(cycle[slot, sid])):
                return AggregationResult(
                    num_sources=num_sources,
                    slots=first + slot + 1,
                    stats=client.stats(),
                    per_source=sorted(client.reports.values(),
                                      key=lambda r: r.source_id),
                )
    raise DecodeFailure(
        f"download incomplete after {max_cycles} carousel cycles")
