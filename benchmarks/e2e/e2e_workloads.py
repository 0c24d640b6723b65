"""The four delivery workloads and one verified repetition of each.

A repetition is set-up, one complete delivery through the public API
with the sender's and the receiver's busy seconds clocked apart, and a
byte-for-byte comparison of what came out with what went in.
Everything runs on the calling thread: the UDP workloads alternate
``serve(count=WINDOW)`` with draining the loopback socket (*lockstep*),
so there is no GIL race between a sender and a receiver thread, the
kernel queue never overflows, and a repetition does identical work
every time.

The timed work is recorded as *segments* of about ``WINDOW`` packets
with a calibration pass between every two (:class:`SegmentClock`).  The
UDP windows are segments already.  The memory and file transports serve
and feed in one call each, so there the transport is handed thin
stand-ins for the sessions (:class:`_MarkedSender`,
:class:`_MarkedReceiver` — the documented duck-typed session surface of
``Transport.serve`` and ``Subscription.feed``) that close a segment
every ``WINDOW`` packets from inside the call.
"""

from __future__ import annotations

import gc
import json
import pathlib
import signal
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import api
from repro.codes.raptor.cache import cache_stats, clear_cache
from repro.errors import ProtocolError
from repro.net.transport import FileTransport, MemoryTransport, UdpTransport
from repro.net.transport.base import FEED_BATCH
from repro.net.transport.udp import UdpSubscription

from e2e_stats import speed_factor

#: packets per block in every workload (the API default at P = 1024).
BLOCK_PACKETS = 256

#: packets served per lockstep window, and per segment elsewhere.  512
#: datagrams of at most 1043 bytes sit comfortably in the subscription's
#: 4 MiB receive buffer, so a datagram that does not arrive is a
#: defect, not load.
WINDOW = 512

#: seconds of silence after which a lockstep drain gives up: every
#: datagram of the window is already queued when the drain starts.
DRAIN_TIMEOUT_S = 1.0

#: independent loss trials a run cycles through (README.md: one trial's
#: reception ratio swings 2-4 % with the loss seed, the mean of four is
#: steady enough to gate).
TRIALS = 4

#: seconds after which a repetition is failed instead of left hanging.
REPETITION_LIMIT_S = 60.0

#: packets per object of ``--quick`` runs (1 MiB at P = 1024): a harness
#: smoke test, not a measurement.
QUICK_PACKETS = 1024


class DeliveryError(Exception):
    """A repetition that did not deliver: drop, time-out or wrong bytes."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    transport: str          # "udp" | "memory" | "file"
    code: str
    object_bytes: int
    packet_size: int
    loss: float


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "udp-lt-lossy",
        "LT over loopback UDP at 10% loss: every droplet is synthesised "
        "and every block peeled, so codec encode/decode dominate",
        "udp", "lt", 4 << 20, 1024, 0.10),
    Workload(
        "udp-raptor-clean-p128",
        "systematic Raptor, 128-byte packets, no loss: no solver work, "
        "only the per-datagram path; also the heavy cold set-up",
        "udp", "raptor", 1 << 20, 128, 0.0),
    Workload(
        "mem-raptor-lossy",
        "Raptor through the in-memory transport at 20% loss: repair "
        "encoding and inactivation decoding with no sockets or framing",
        "memory", "raptor", 2 << 20, 1024, 0.20),
    Workload(
        "file-tornado-replay",
        "the paper's Tornado carousel recorded to a file at 10% loss and "
        "replayed: fixed-rate row encoders and fixed-size record batches",
        "file", "tornado-b", 3 << 20, 1024, 0.10),
)}


@dataclass(frozen=True)
class Segment:
    """One timed stretch of a repetition and the box's speed around it."""

    kind: str               # "send" | "recv" | "setup"
    seconds: float
    factor: float           # slowdown vs reference (1.0 = at reference)


class _NoSpans:
    """Stands in for a tracer on untraced repetitions."""

    _null = nullcontext()

    def span(self, name: str) -> Any:
        return self._null


class SegmentClock:
    """Times consecutive segments, one calibration pass between each.

    ``start()`` opens a segment (taking a fresh calibration pass, for
    use after untimed work); ``mark(kind)`` closes it, calibrates, and
    opens the next.  A segment's speed factor is the mean of the passes
    either side of it.  Passes run inside a ``bench.calibrate`` span so
    a traced layer never has them in its self time.
    """

    def __init__(self, spans: Any, calibrate: Callable[[], float]):
        self.segments: List[Segment] = []
        self._spans = spans
        self._pass = calibrate
        self._cal = 0.0
        self._opened = 0.0

    def _calibrate(self) -> float:
        with self._spans.span("bench.calibrate"):
            return self._pass()

    def start(self) -> None:
        self._cal = self._calibrate()
        self._opened = time.perf_counter()

    def mark(self, kind: str) -> None:
        seconds = time.perf_counter() - self._opened
        cal = self._calibrate()
        self.segments.append(
            Segment(kind, seconds, speed_factor(self._cal, cal)))
        self._cal = cal
        self._opened = time.perf_counter()


class _MarkedSender:
    """A sender session that closes a segment every WINDOW packets.

    Exposes exactly the surface ``Transport.serve`` documents
    (``packets()``, ``manifest()``, ``codec``, ``total_k``, ``source``)
    and forwards it; only ``packets()`` is more than a pass-through.
    """

    def __init__(self, session: api.SenderSession, clock: SegmentClock):
        self._session = session
        self._clock = clock
        self.codec = session.codec
        self.total_k = session.total_k
        self.source = session.source
        self.manifest = session.manifest

    def packets(self, count: Optional[int] = None) -> Iterator[Any]:
        pending = 0
        for packet in self._session.packets(count):
            if pending == WINDOW:
                # the serve loop has finished with the previous packet
                self._clock.mark("send")
                pending = 0
            pending += 1
            yield packet


class _MarkedReceiver:
    """A receiver session that closes a segment every WINDOW records
    (the surface ``Subscription.feed`` drives: ``is_complete`` and
    ``receive_records``)."""

    def __init__(self, session: api.ReceiverSession, clock: SegmentClock):
        self._session = session
        self._clock = clock
        self._batches = 0

    @property
    def is_complete(self) -> bool:
        return self._session.is_complete

    def receive_records(self, records: Any) -> bool:
        done = self._session.receive_records(records)
        self._batches += 1
        if self._batches % (WINDOW // FEED_BATCH) == 0:
            self._clock.mark("recv")
        return done


@dataclass
class Repetition:
    """What one verified delivery measured."""

    segments: List[Segment] = field(default_factory=list)
    cache_misses: int = 0
    total_k: int = 0
    emitted: int = 0
    dropped: int = 0
    manifest_frames: int = 0
    packets_used: int = 0
    after_complete: int = 0
    batches: int = 0
    records: int = 0
    malformed: int = 0

    def seconds(self, kind: str) -> float:
        """Raw (un-normalised) seconds of this repetition's ``kind``."""
        return sum(s.seconds for s in self.segments if s.kind == kind)

    @property
    def shape(self) -> Tuple[str, ...]:
        """The segment kinds in order: equal work has equal shape."""
        return tuple(s.kind for s in self.segments)


def make_object(seed: int, size: int) -> bytes:
    """The object bytes of a run: a pure function of ``--seed``."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


@contextmanager
def time_limit(seconds: float) -> Iterator[None]:
    """Fail the enclosed repetition instead of letting it hang.

    ``SIGALRM`` interrupts the one thread there is; the previous
    handler and timer are restored either way.
    """
    def expired(signum: int, frame: Any) -> None:
        raise DeliveryError(f"repetition exceeded {seconds:.0f}s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _session_options(w: Workload, seed: int) -> Dict[str, Any]:
    return dict(code=w.code, packet_size=w.packet_size,
                block_size=BLOCK_PACKETS * w.packet_size, seed=seed)


class _Delivery:
    """The state one repetition threads through its steps."""

    def __init__(self, w: Workload, data: bytes, seed: int, trial: int,
                 cold: bool, spans: Any, calibrate: Callable[[], float]):
        self.w = w
        self.data = data
        self.seed = seed
        self.trial_seed = seed * TRIALS + trial
        self.cold = cold
        self.spans = spans
        self.clock = SegmentClock(spans, calibrate)
        self.rep = Repetition(segments=self.clock.segments)

    # -- set-up (its own segments; never part of the rates) ---------------------

    def begin_setup(self) -> None:
        """Cold set-ups empty the process-wide Raptor cache first: a
        receiver on another host cannot free-ride on the sender's."""
        if self.cold:
            clear_cache()
        self._misses = cache_stats()["misses"]
        self.clock.start()

    def end_setup(self) -> None:
        self.clock.mark("setup")
        self.rep.cache_misses += cache_stats()["misses"] - self._misses

    def sender(self, source: Optional[pathlib.Path] = None
               ) -> api.SenderSession:
        options = _session_options(self.w, self.seed)
        if source is not None:
            session = api.SenderSession.for_file(source, **options)
        else:
            session = api.SenderSession(self.data, **options)
        self.rep.total_k = session.total_k
        return session

    def receiver(self, manifest: dict) -> api.ReceiverSession:
        """Built the way another host would: from the manifest's JSON,
        with every block's code forced so no lazy build leaks into the
        timed delivery."""
        receiver = api.ReceiverSession(json.loads(json.dumps(manifest)))
        for block in range(receiver.codec.num_blocks):
            receiver.codec.code_for(block)
        return receiver

    # -- after the delivery ------------------------------------------------------

    def served(self, report: Any) -> None:
        self.rep.emitted += report.emitted
        self.rep.dropped += report.dropped
        self.rep.manifest_frames += report.manifest_frames

    def reassemble(self, receiver: api.ReceiverSession) -> bytes:
        with self.spans.span("recv"), \
                self.spans.span("transfer.reassemble"):
            out = receiver.data()
        self.clock.mark("recv")
        client = receiver.client
        self.rep.packets_used = receiver.packets_used
        routed = sum(stats.total_received
                     for stats in map(client.block_stats,
                                      range(client.num_blocks))
                     if stats is not None)
        self.rep.after_complete = client.total_received - routed
        return out


def _deliver_udp(d: _Delivery) -> bytes:
    w, spans, clock, rep = d.w, d.spans, d.clock, d.rep
    d.begin_setup()
    sender = d.sender()
    subscription = UdpSubscription("127.0.0.1:0", timeout=DRAIN_TIMEOUT_S)
    try:
        d.end_setup()
        d.begin_setup()
        receiver = d.receiver(sender.manifest())
        d.end_setup()
        batches = subscription.record_batches()
        window = 0
        clock.start()
        while not receiver.is_complete:
            # A fresh transport per window: one loss seed for the whole
            # delivery would repeat one loss mask every WINDOW packets
            # and starve the same slots of the interleave schedule.
            transport = UdpTransport([subscription.address], loss=w.loss,
                                     seed=d.trial_seed * 1000 + window)
            with spans.span("send"):
                report = sender.serve(transport, count=WINDOW)
            clock.mark("send")
            got = 0
            with spans.span("recv"):
                while got < report.delivered and not receiver.is_complete:
                    try:
                        with spans.span("net.udp.drain"):
                            batch = next(batches)
                    except ProtocolError:
                        raise DeliveryError(
                            f"window {window}: {got} of {report.delivered} "
                            "datagrams arrived — the kernel dropped the "
                            "rest (is net.core.rmem_max below 4 MiB?)"
                        ) from None
                    got += len(batch)
                    rep.batches += 1
                    receiver.receive_records(batch)
            clock.mark("recv")
            rep.records += got
            d.served(report)
            window += 1
        out = d.reassemble(receiver)
        rep.malformed = subscription.malformed
    finally:
        subscription.close()
    return out


def _deliver_memory(d: _Delivery) -> bytes:
    w, spans, clock = d.w, d.spans, d.clock
    d.begin_setup()
    sender = d.sender()
    transport = MemoryTransport(loss=w.loss, seed=d.trial_seed + 1)
    subscription = transport.subscribe()
    d.end_setup()
    clock.start()
    with spans.span("send"):
        report = transport.serve(_MarkedSender(sender, clock))
    clock.mark("send")
    d.served(report)
    d.begin_setup()
    receiver = d.receiver(subscription.manifest())
    d.end_setup()
    clock.start()
    with spans.span("recv"), spans.span("net.memory.feed"):
        subscription.feed(_MarkedReceiver(receiver, clock))
    clock.mark("recv")
    d.rep.records = subscription.available
    return d.reassemble(receiver)


def _deliver_file(d: _Delivery, workdir: pathlib.Path) -> bytes:
    w, spans, clock = d.w, d.spans, d.clock
    source = workdir / "object.bin"
    if not source.exists():
        source.write_bytes(d.data)
    stream_dir = workdir / "stream"
    output = workdir / "object.out"
    d.begin_setup()
    sender = d.sender(source)
    transport = FileTransport(stream_dir, loss=w.loss, seed=d.trial_seed + 1)
    d.end_setup()
    clock.start()
    with spans.span("send"):
        report = transport.serve(_MarkedSender(sender, clock))
    clock.mark("send")
    d.served(report)
    d.begin_setup()
    subscription = FileTransport(stream_dir).subscribe()
    receiver = d.receiver(subscription.manifest())
    d.end_setup()
    clock.start()
    with spans.span("recv"), spans.span("net.file.feed"):
        subscription.feed(_MarkedReceiver(receiver, clock))
    clock.mark("recv")
    d.rep.records = subscription.available
    out = d.reassemble(receiver)
    clock.start()
    with spans.span("recv"), spans.span("net.file.write"):
        output.write_bytes(out)
    clock.mark("recv")
    return output.read_bytes()


def deliver(w: Workload, data: bytes, seed: int, trial: int, cold: bool,
            workdir: pathlib.Path, calibrate: Callable[[], float],
            tracer: Optional[Any] = None) -> Repetition:
    """One set-up + delivery + verification; raises on any failure.

    ``trial`` picks the loss seed (``seed * TRIALS + trial``); the
    object bytes and the code seed depend on ``seed`` alone.
    ``calibrate`` is the pass run between segments (a
    :class:`e2e_stats.Calibrator`).
    """
    d = _Delivery(w, data, seed, trial, cold,
                  _NoSpans() if tracer is None else tracer, calibrate)
    with time_limit(REPETITION_LIMIT_S):
        if w.transport == "udp":
            out = _deliver_udp(d)
        elif w.transport == "memory":
            out = _deliver_memory(d)
        else:
            out = _deliver_file(d, workdir)
    if out != data:
        raise DeliveryError(
            f"delivered object is not byte-exact ({len(out)} bytes out, "
            f"{len(data)} in)")
    # cyclic garbage (event loops, generators) is freed here, between
    # repetitions, not at whatever moment the allocator counters trip
    gc.collect()
    return d.rep
