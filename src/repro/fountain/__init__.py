"""The digital-fountain reception layer (paper Sections 3, 4 and 7).

Packets on the wire are :class:`~repro.fountain.packets.EncodingPacket`
records (the paper's 12-byte header + payload, or the 16-byte block
header of a striped transfer); one server,
:class:`~repro.transfer.server.TransferServer`, stamps them all, as a
carousel over a fixed-rate encoding or a rateless droplet stream.  One
receiver, :class:`~repro.transfer.client.TransferClient`, drinks
packets of either shape until its decoders complete, tracking the
reception-efficiency metrics of Section 6/7.3
(:class:`~repro.fountain.metrics.ReceptionStats`);
:class:`~repro.fountain.aggregate.MultiSourceClient` merges several
carousel streams (Section 8's mirroring application).
"""

from repro.fountain.packets import (
    EncodingPacket,
    HEADER_SIZE,
    BLOCK_HEADER_SIZE,
    SERIAL_MODULUS,
)
from repro.fountain.metrics import ReceptionStats
from repro.fountain.aggregate import (
    MultiSourceClient,
    simulate_aggregate_download,
)

__all__ = [
    "EncodingPacket",
    "HEADER_SIZE",
    "BLOCK_HEADER_SIZE",
    "SERIAL_MODULUS",
    "ReceptionStats",
    "MultiSourceClient",
    "simulate_aggregate_download",
]
