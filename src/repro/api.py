"""``repro.api`` — one way to build, send, and receive, for every code.

The paper's fountain ideal is an interface, not a code: *inject packets
from the stream until you have enough*.  This facade is that interface
for whole files, built on the code registry
(:mod:`repro.codes.registry`) and the block-segmented transfer layer,
so the erasure code underneath is chosen by a spec string and nothing
else changes:

    from repro import api

    api.send_file("big.iso", "out/", code="lt:c=0.03,delta=0.1",
                  loss=0.2)
    api.receive_stream("out/", "recovered.iso")

For in-memory pipelines (tests, simulations, custom channels) the same
machinery is exposed as two session objects:

    sender = api.SenderSession(data, code="tornado-b", seed=7)
    receiver = api.ReceiverSession(sender.manifest())
    for packet in sender.packets():          # a lossy channel goes here
        if receiver.receive(packet):
            break
    assert receiver.data() == data

Delivery itself is pluggable: any :mod:`repro.net.transport` transport
serves a session's stream — in-memory queues, a recorded ``stream.pkt``
directory, or real UDP datagrams::

    from repro.net.transport import UdpTransport

    transport = UdpTransport(["127.0.0.1:9000"], pace=5000)
    subscription = transport.subscribe()
    sender.serve(transport, stop=...)                  # sprays datagrams
    receiver = ReceiverSession.from_subscription(subscription)
    subscription.feed(receiver)

``send_file`` serves a file through a :class:`FileTransport` (writing
the surviving packets of a simulated lossy channel into
``out/stream.pkt`` plus a JSON manifest); ``receive_stream`` replays
the survivors into per-block incremental decoders and reconstructs the
byte-exact original.  Both speak only spec strings — no code class ever
crosses the API boundary.

Population-scale evaluation rides the same facade: a declarative
:class:`~repro.sim.swarm.Scenario` (re-exported here, JSON
round-trippable) describes a whole receiver swarm, and
:func:`~repro.sim.swarm.run_scenario` simulates it vectorized::

    result = api.run_scenario("examples/scenarios/flash_crowd.json")
    result.summary()["overhead_p99"]
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence, Union

import numpy as np

from repro.codes.registry import CodeSpec
from repro.errors import DecodeFailure, ReproError
from repro.fountain.metrics import ReceptionStats
from repro.fountain.packets import EncodingPacket, record_ids
from repro.net.transport.base import ServeReport, Subscription, Transport
from repro.protocol.adaptive import AdaptivePolicy
from repro.protocol.feedback import (
    FeedbackReport,
    LossEstimator,
    report_from_client,
)
from repro.net.transport.file import (
    MANIFEST_NAME,
    STREAM_NAME,
    FileTransport,
)
from repro.sim.swarm import (
    Scenario,
    SwarmResult,
    SwarmSimulator,
    run_scenario,
)
from repro.transfer.blocks import BlockPlan
from repro.transfer.client import TransferClient
from repro.transfer.codec import ObjectCodec
from repro.transfer.server import TransferServer

__all__ = [
    "MANIFEST_NAME",
    "STREAM_NAME",
    "AdaptivePolicy",
    "FeedbackReport",
    "ReceiveReport",
    "ReceiverSession",
    "Scenario",
    "SendReport",
    "SenderSession",
    "SwarmResult",
    "SwarmSimulator",
    "receive_stream",
    "run_scenario",
    "send_file",
]

#: packets between periodic feedback reports when reporting is on.
REPORT_INTERVAL = 128


class SenderSession:
    """Bind an object to a code spec and stream its encoding packets.

    Parameters
    ----------
    data:
        The exact object bytes.
    code:
        Registry spec string (``"tornado-b"``, ``"lt:c=0.05"``, ``"rs"``,
        ...) choosing the per-block code.
    packet_size:
        Payload bytes per packet.
    block_size:
        Bytes per block; each block gets its own small code.
    schedule:
        Cross-block striping order (``"interleave"`` or ``"sequential"``).
    seed:
        Shared transfer seed (code graphs, carousel permutations).
    file_name:
        Recorded in the manifest for the receiver's benefit.
    """

    def __init__(self, data: bytes, code: Union[str, CodeSpec] = "tornado-b",
                 packet_size: int = 1024, block_size: int = 256 * 1024,
                 schedule: str = "interleave", seed: int = 2024,
                 file_name: Optional[str] = None):
        if not data:
            raise ReproError("nothing to send: the object is empty")
        self.data = data
        self.schedule = schedule
        self.seed = int(seed)
        self.file_name = file_name
        self.plan = BlockPlan.from_block_size(len(data), packet_size,
                                              block_size)
        self.codec = ObjectCodec(self.plan, code=code, seed=self.seed)
        self.server = TransferServer(self.codec, data, schedule=schedule,
                                     seed=self.seed)

    @property
    def code_spec(self) -> str:
        return self.codec.code_spec

    @property
    def num_blocks(self) -> int:
        return self.codec.num_blocks

    @property
    def total_k(self) -> int:
        return self.codec.total_k

    @property
    def source(self) -> TransferServer:
        """The session's packet source (the striped transfer server)."""
        return self.server

    def packets(self, count: Optional[int] = None
                ) -> Iterator[EncodingPacket]:
        """The striped packet stream (infinite when ``count`` is None)."""
        return self.server.packets(count)

    def new_stream(self, *, seed: Optional[int] = None,
                   schedule: Optional[str] = None) -> TransferServer:
        """An additional independent stream over the *same* encodings.

        The encode-once/serve-many path: every stream forked here
        shares the per-block payload cache, so serving one object to
        many receivers (or over several transports) pays for exactly
        one encode.
        """
        return self.server.fork(seed=seed, schedule=schedule)

    def serve(self, transport: Transport, *,
              policy: Optional[AdaptivePolicy] = None,
              feedback: Optional[Any] = None,
              **options: Any) -> ServeReport:
        """Serve this session's stream through any registered transport.

        ``policy`` plugs an :class:`~repro.protocol.adaptive.
        AdaptivePolicy` into the serve loop: transports with a feedback
        path (memory, UDP) route receiver reports into it and apply its
        rate / block-schedule decisions to the live stream.
        ``feedback`` is an optional callable receiving every decoded
        :class:`~repro.protocol.feedback.FeedbackReport` (observability
        taps, tests).  Remaining ``options`` pass straight to the
        transport's ``serve`` — ``count``/``extra`` for memory and
        file (memory's ``extra`` counts emissions after the last shadow
        receiver completes, file's counts survivors of its channel),
        ``count``/``duration``/``stop`` for UDP.
        """
        if policy is not None:
            options["policy"] = policy
        if feedback is not None:
            options["feedback"] = feedback
        return transport.serve(self, **options)

    def manifest(self, **extra: object) -> dict:
        """The JSON-able manifest a :class:`ReceiverSession` needs."""
        if self.file_name is not None:
            extra.setdefault("file_name", self.file_name)
        return self.codec.to_manifest(schedule=self.schedule, **extra)

    @classmethod
    def for_file(cls, path: Union[str, pathlib.Path],
                 **kwargs: object) -> "SenderSession":
        """A session over a file's bytes, with its name in the manifest."""
        path = pathlib.Path(path)
        kwargs.setdefault("file_name", path.name)
        return cls(path.read_bytes(), **kwargs)  # type: ignore[arg-type]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SenderSession(code={self.code_spec!r}, "
                f"bytes={len(self.data)}, blocks={self.num_blocks})")


class ReceiverSession:
    """Consume a packet stream described by a manifest until complete.

    Parameters
    ----------
    manifest:
        The sender's JSON-able manifest (geometry + code spec).
    report:
        Feedback reporting: ``None``/``False`` stays silent (the
        paper's pure open-loop receiver), ``True`` reports every
        :data:`REPORT_INTERVAL` packets, an int sets the interval.
        Reports carry the serial-gap loss EWMA and per-block decode
        deficits; transport ``feed`` loops forward them through the
        subscription's feedback path.
    receiver_id:
        Identifier stamped into this session's reports (keys the
        sender's staleness decay; give concurrent receivers distinct
        ids).
    """

    def __init__(self, manifest: dict, *,
                 report: Union[bool, int, None] = None,
                 receiver_id: int = 0):
        self.manifest = manifest
        self.codec = ObjectCodec.from_manifest(manifest)
        self.client = TransferClient(self.codec)
        #: bytes per on-wire packet record (header + payload).
        self.record_size = self.codec.record_size
        self.packets_used = 0
        self._rejected = 0
        self.receiver_id = int(receiver_id)
        if report is None or report is False:
            self.report_interval: Optional[int] = None
        elif report is True:
            self.report_interval = REPORT_INTERVAL
        else:
            self.report_interval = max(1, int(report))
        self.loss_estimator = LossEstimator()
        self._reported_at = 0
        self._final_reported = False

    @classmethod
    def from_subscription(cls, subscription: Subscription,
                          timeout: Optional[float] = None, *,
                          report: Union[bool, int, None] = None,
                          receiver_id: int = 0) -> "ReceiverSession":
        """A session built from a transport subscription's manifest.

        Waits for the manifest on live transports (UDP re-sends it
        in-band); drive the session with ``subscription.feed(session)``,
        which also relays any due feedback reports back to the sender
        when ``report`` enables them.
        """
        return cls(subscription.manifest(timeout=timeout),
                   report=report, receiver_id=receiver_id)

    @property
    def code_spec(self) -> str:
        return self.codec.code_spec

    @property
    def is_complete(self) -> bool:
        return self.client.is_complete

    @property
    def progress(self) -> float:
        return self.client.progress

    @property
    def loss_estimate(self) -> float:
        """The serial-gap loss EWMA (0.0 until reporting observes gaps)."""
        return self.loss_estimator.loss

    @property
    def reporting(self) -> bool:
        return self.report_interval is not None

    @property
    def rejected(self) -> int:
        """Wire records dropped as erasures: wrong length, a block id
        the manifest does not have, or an index outside its block's
        encoding — a foreign or hostile sender's, never raised."""
        return self._rejected

    def feedback_report(self) -> FeedbackReport:
        """This session's current state as a feedback wire frame."""
        return report_from_client(self.client,
                                  receiver_id=self.receiver_id,
                                  loss=self.loss_estimate,
                                  packets_used=self.packets_used)

    def maybe_report(self) -> Optional[FeedbackReport]:
        """A report if one is due, else None (the ``feed``-loop hook).

        Reports fire every ``report_interval`` consumed packets, plus
        exactly one final report once the decode completes; sessions
        built without ``report=`` never produce any.  A session that
        completes inside its first interval is due, before its final
        report, the one it would have sent before its first packet: a
        sender counts a complete report only from a receiver it heard
        decoding (:class:`~repro.protocol.adaptive.AdaptivePolicy`).
        Call until None to relay everything due.
        """
        if self.report_interval is None:
            return None
        if self.is_complete:
            if self._final_reported:
                return None
            if not self._reported_at:
                self._reported_at = self.packets_used
                return report_from_client(
                    TransferClient(self.codec, payload_size=None),
                    receiver_id=self.receiver_id)
            self._final_reported = True
            return self.feedback_report()
        if self.packets_used - self._reported_at < self.report_interval:
            return None
        self._reported_at = self.packets_used
        return self.feedback_report()

    def receive(self, packet: EncodingPacket) -> bool:
        """Ingest one packet: :meth:`receive_records` of its record, so
        a packet this session's geometry does not have is rejected like
        any other record.  True once every block is decodable."""
        return self.receive_record(packet.to_bytes())

    def receive_record(self, record: bytes) -> bool:
        """Ingest one on-wire packet record (header + payload bytes)."""
        return self.receive_records((record,))

    def receive_records(self, records: Union[Sequence[bytes], np.ndarray]
                        ) -> bool:
        """Ingest a batch of wire records in one decoder pass per block.

        The batch ingest path of the transport layer: a subscription
        drains everything queued on its medium and hands the backlog
        here, where headers parse in one vectorized pass and each
        block's packets reach its decoder through
        :meth:`~repro.transfer.client.TransferClient.receive_many`.
        ``records`` is a sequence of ``bytes``, or the ``(n,
        record_size)`` uint8 array a datagram drain yields — that one is
        the record matrix already, no length filter and no join.

        This is the bytes-in boundary, so nothing a record says is
        trusted: one of the wrong length, or whose header names a block
        or index the manifest's geometry does not have, is dropped as
        an erasure and counted in :attr:`rejected` — in the same pass,
        never raised.

        Counter-exact versus feeding :meth:`receive_record` one call
        per record (the deficit-bounded chunking of
        :meth:`~repro.transfer.client.TransferClient.receive_window`):
        ``packets_used``/reception stats match the sequential run, and
        records after completion are ignored, as the sequential loop
        would leave them unread.
        """
        if self.client.is_complete:
            return True
        if (isinstance(records, np.ndarray) and records.dtype == np.uint8
                and records.shape[1:] == (self.record_size,)):
            buf = records       # a transport's drain, already a matrix
        else:
            records = list(records)
            if set(map(len, records)) - {self.record_size}:
                sized = [r for r in records if len(r) == self.record_size]
                self._rejected += len(records) - len(sized)
                records = sized
            buf = np.frombuffer(b"".join(records), dtype=np.uint8)
            buf = buf.reshape(len(records), self.record_size)
        if not len(buf):
            return False
        header = self.codec.header_size
        blocks, indices, serials = record_ids(buf, header)
        named = self.client.names_packet(blocks, indices)
        if not named.all():
            self._rejected += len(buf) - int(named.sum())
            buf, blocks, indices, serials = (
                buf[named], blocks[named], indices[named], serials[named])
        used = self.client.receive_window(blocks, indices, buf[:, header:])
        self.packets_used += used
        if self.reporting:
            self.loss_estimator.observe(serials[:used].tolist())
        return self.client.is_complete

    def data(self) -> bytes:
        """The reconstructed object, byte-identical to the sender's."""
        return self.client.object_data()

    def stats(self) -> ReceptionStats:
        return self.client.stats()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ReceiverSession(code={self.code_spec!r}, "
                f"blocks={self.client.blocks_complete}/"
                f"{self.codec.num_blocks}, rejected={self.rejected})")


# -- one-call file transfer ----------------------------------------------------


@dataclass(frozen=True)
class SendReport:
    """Outcome of :func:`send_file`."""

    out_dir: pathlib.Path
    file_name: str
    file_size: int
    code_spec: str
    schedule: str
    num_blocks: int
    total_k: int
    loss: float
    #: packets pushed into the channel.
    sent: int
    #: survivors recorded into ``stream.pkt``.
    survivors: int

    @property
    def reception_overhead(self) -> float:
        """Survivors beyond the source packet count, as a fraction."""
        return self.survivors / self.total_k - 1.0


@dataclass(frozen=True)
class ReceiveReport:
    """Outcome of :func:`receive_stream`."""

    data: bytes
    file_name: str
    code_spec: str
    #: packets consumed before every block decoded.
    packets_used: int
    #: packet records available in the stream file.
    packets_available: int
    stats: ReceptionStats

    @property
    def file_size(self) -> int:
        return len(self.data)


def send_file(input_path: Union[str, pathlib.Path],
              out_dir: Union[str, pathlib.Path],
              code: Union[str, CodeSpec] = "tornado-b",
              *,
              loss: float = 0.0,
              packet_size: int = 1024,
              block_size: int = 256 * 1024,
              schedule: str = "interleave",
              seed: int = 2024,
              loss_seed: Optional[int] = None,
              extra: int = 0) -> SendReport:
    """Stream a file across a simulated lossy channel into ``out_dir``.

    A thin wrapper over the file transport
    (:class:`repro.net.transport.file.FileTransport`): writes
    ``stream.pkt`` (the surviving packet records) and ``manifest.json``
    (everything :func:`receive_stream` needs).  A structural shadow
    receiver tells the sender when the recorded survivors have become
    decodable, after which ``extra`` more survivors are recorded as
    safety margin.

    Raises :class:`~repro.errors.ReproError` when the channel is too
    lossy to finish within the emission budget.
    """
    input_path = pathlib.Path(input_path)
    session = SenderSession.for_file(input_path, code=code,
                                     packet_size=packet_size,
                                     block_size=block_size,
                                     schedule=schedule, seed=seed)
    if loss_seed is None:
        loss_seed = seed + 1
    out_dir = pathlib.Path(out_dir)
    transport = FileTransport(out_dir, loss=loss, seed=loss_seed)
    report = session.serve(transport, extra=extra)
    return SendReport(
        out_dir=out_dir,
        file_name=input_path.name,
        file_size=len(session.data),
        code_spec=session.code_spec,
        schedule=schedule,
        num_blocks=session.num_blocks,
        total_k=session.total_k,
        loss=loss,
        sent=report.emitted,
        survivors=report.delivered,
    )


def receive_stream(in_dir: Union[str, pathlib.Path],
                   output_path: Union[str, pathlib.Path, None] = None
                   ) -> ReceiveReport:
    """Reconstruct the original file from a :func:`send_file` directory.

    Returns the reconstructed bytes in the report; also writes them to
    ``output_path`` when given.  Raises
    :class:`~repro.errors.ProtocolError` for non-transfer directories
    and :class:`~repro.errors.DecodeFailure` when the recorded survivors
    are insufficient (re-send with more ``extra``).
    """
    subscription = FileTransport(in_dir).subscribe()
    session = ReceiverSession.from_subscription(subscription)
    manifest = session.manifest
    subscription.feed(session)
    if not session.is_complete:
        raise DecodeFailure(
            f"{session.packets_used} packets were not enough — blocks "
            f"{session.client.incomplete_blocks[:8]} incomplete; "
            "re-send with more extra packets")
    data = session.data()
    if output_path is not None:
        pathlib.Path(output_path).write_bytes(data)
    return ReceiveReport(
        data=data,
        file_name=manifest.get("file_name", ""),
        code_spec=session.code_spec,
        packets_used=session.packets_used,
        packets_available=subscription.available,
        stats=session.stats(),
    )
