"""Interchangeable delivery transports behind one contract.

Every transport moves the records of a packet stream from a sender
session to receiver subscriptions; swap the transport and nothing else
changes::

    from repro.net.transport import MemoryTransport, UdpTransport

    transport = MemoryTransport(loss=0.2, seed=1)      # in-process
    transport = FileTransport("out/", loss=0.2)        # stream.pkt dir
    transport = UdpTransport(["127.0.0.1:9000"],       # real sockets
                             pace=5000, loss=0.2)

    subscription = transport.subscribe()
    report = sender_session.serve(transport)
    receiver = subscription.receive()                  # ReceiverSession

See :mod:`repro.net.transport.base` for the contract and datagram
framing, and :mod:`repro.net.transport.udp` for the socket delivery
path (`repro serve` / `repro fetch` on the CLI).
"""

from repro.net.transport.base import (
    EMISSION_LIMIT_FACTOR,
    FRAME_DATA,
    FRAME_MANIFEST,
    ServeReport,
    Subscription,
    Transport,
    iter_frames,
    pack_frame,
)
from repro.net.transport.pacing import TokenBucket
from repro.net.transport.memory import MemorySubscription, MemoryTransport
from repro.net.transport.file import (
    MANIFEST_NAME,
    STREAM_NAME,
    FileSubscription,
    FileTransport,
)
from repro.net.transport.udp import (
    UdpSubscription,
    UdpTransport,
    is_multicast,
    parse_address,
)

__all__ = [
    "EMISSION_LIMIT_FACTOR",
    "FRAME_DATA",
    "FRAME_MANIFEST",
    "MANIFEST_NAME",
    "STREAM_NAME",
    "ServeReport",
    "Subscription",
    "TokenBucket",
    "Transport",
    "FileSubscription",
    "FileTransport",
    "MemorySubscription",
    "MemoryTransport",
    "UdpSubscription",
    "UdpTransport",
    "is_multicast",
    "iter_frames",
    "pack_frame",
    "parse_address",
]
