"""The digital-fountain transmission layer (paper Sections 3, 4 and 7).

Two server shapes approximate/realise the fountain of Section 3:

* :class:`~repro.fountain.carousel.CarouselServer` — the paper's
  approximation: cycle through a random permutation of a fixed-rate
  erasure encoding (Tornado, Reed-Solomon, interleaved).
* :class:`~repro.fountain.rateless.RatelessServer` — the ideal the
  paper motivates: stream unbounded LT droplets, no stretch-factor
  ceiling, no wrap-around duplicates.

Both emit :class:`~repro.fountain.packets.EncodingPacket` (one wire
record: the paper's 12-byte header + payload) numbered by a shared
:class:`~repro.fountain.packets.HeaderSequencer`; a
:class:`~repro.fountain.client.FountainClient` drinks packets from
either stream until its decoder completes, tracking the
reception-efficiency metrics of Section 6/7.3
(:class:`~repro.fountain.metrics.ReceptionStats`);
:class:`~repro.fountain.aggregate.MultiSourceClient` merges several
carousel streams (Section 8's mirroring application).
"""

from repro.fountain.packets import (
    EncodingPacket,
    HeaderSequencer,
    HEADER_SIZE,
    BLOCK_HEADER_SIZE,
    SERIAL_MODULUS,
)
from repro.fountain.source import SequencedPacketSource
from repro.fountain.carousel import CarouselServer
from repro.fountain.rateless import RatelessServer
from repro.fountain.client import FountainClient, ClientMode
from repro.fountain.metrics import ReceptionStats
from repro.fountain.aggregate import (
    MultiSourceClient,
    simulate_aggregate_download,
)

__all__ = [
    "EncodingPacket",
    "HeaderSequencer",
    "HEADER_SIZE",
    "BLOCK_HEADER_SIZE",
    "SERIAL_MODULUS",
    "SequencedPacketSource",
    "CarouselServer",
    "RatelessServer",
    "FountainClient",
    "ClientMode",
    "ReceptionStats",
    "MultiSourceClient",
    "simulate_aggregate_download",
]
