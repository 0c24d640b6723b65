"""Real UDP delivery: unicast and loopback multicast.

The paper's server "sprays" an unreliable datagram stream at
arbitrarily many heterogeneous receivers; this module does it with real
sockets.  The sender is a plain loop over one blocking socket, pumping
length-prefixed frames (see :mod:`repro.net.transport.base`) to any
number of unicast destinations and/or multicast groups, with

* **token-bucket pacing** (``pace`` packets per second) so loopback
  buffers — and real links — are not flooded,
* **in-band manifests**: the JSON manifest is re-sent every
  ``manifest_interval`` data packets, so a receiver can join
  mid-stream, learn the object geometry, and start decoding, and
* **optional Bernoulli loss injection** (per packet, per destination,
  deterministic under a fixed seed) so tests exercise real lossy-path
  recovery without a lossy network.

Neither end runs an event loop: the paper's server is open loop, with
nothing to schedule but its pace, and a fountain receiver just drinks
datagrams until its decoder completes.  The receiver is a plain
blocking socket behind the
:class:`~repro.net.transport.base.Subscription` contract, callable from
any thread.  UDP drops packets the kernel's buffers cannot hold;
that is simply more erasure, which is the entire point of the codes
upstream (the subscription reports the kernel's count of them where
the socket offers it, ``SO_RXQ_OVFL``).

Both ends hand the kernel a run of datagrams per system call where
Linux's UDP offloads are accepted.  The sender passes each
destination's run of equal-sized data datagrams to one
``UDP_SEGMENT`` ``sendmsg``, which the kernel cuts back into exactly
those datagrams: wire bytes, datagram boundaries and order are those of
one ``sendto`` each, which is also what the sender falls back to where
the kernel refuses the offload.  The receiver turns on ``UDP_GRO`` and
reads such runs back as one buffer, which it takes apart into the same
datagrams (see :meth:`UdpSubscription._drain_records`).

The control plane runs the same sockets in reverse: the subscription
remembers the sender's source address and ``send_feedback`` fires
``FRAME_FEEDBACK`` frames straight back at it, the sender reads them
off its own socket, and ``serve(policy=...)`` folds each decoded
:class:`~repro.protocol.feedback.FeedbackReport` into an
:class:`~repro.protocol.adaptive.AdaptivePolicy` — retargeting the
token bucket, reweighting the live block schedule, and stopping early
once every known receiver reports a finished decode.  Feedback frames
are as unreliable as everything else here; the sender merely becomes
open-loop again when they stop arriving.
"""

from __future__ import annotations

import ipaddress
import json
import socket
import struct
import sys
import time
from bisect import bisect_right
from typing import Any, Callable, Collection, Dict, Iterator, List, \
    Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ParameterError, ProtocolError
from repro.net.channel import LossyChannel
from repro.net.loss import LossModel, as_loss_model
from repro.net.transport.base import (
    DATAGRAM_BUDGET,
    EMISSION_LIMIT_FACTOR,
    FRAME_DATA,
    FRAME_FEEDBACK,
    FRAME_MANIFEST,
    MAX_FRAME_BODY,
    SERVE_WINDOW,
    ServeReport,
    Subscription,
    Transport,
    frame_head,
    frame_records,
    iter_frames,
    pack_frame,
    parse_manifest,
    unframe_records,
)
from repro.net.transport.pacing import TokenBucket
from repro.protocol.adaptive import AdaptivePolicy
from repro.protocol.feedback import FeedbackReport
from repro.transfer.codec import record_size
from repro.utils.rng import ensure_rng, spawn_rng

__all__ = ["UdpTransport", "UdpSubscription", "parse_address",
           "is_multicast", "offload_support"]

Address = Tuple[str, int]

#: default receive-socket buffer: room for a few thousand packets.
DEFAULT_RCVBUF = 1 << 22

#: Linux socket options the ``socket`` module does not name: the
#: segment size of a segmentation-offload send and receive coalescing
#: (``IPPROTO_UDP``), and the receive-queue drop count
#: (``SOL_SOCKET``).
_UDP_SEGMENT = getattr(socket, "UDP_SEGMENT", 103)
_UDP_GRO = getattr(socket, "UDP_GRO", 104)
_SO_RXQ_OVFL = getattr(socket, "SO_RXQ_OVFL", 40)

#: the ``UDP_SEGMENT`` control message's payload: a native u16.
_SEGMENT_SIZE = struct.Struct("=H")

#: most datagrams one segmentation-offload send may carry (the
#: kernel's ``UDP_MAX_SEGMENTS``) ...
_MAX_SEGMENTS = 64
#: ... and most bytes: the largest IPv4 UDP payload (65535 less the
#: IPv4 and UDP headers).
_MAX_SEND_BYTES = 65507

#: one receive: the largest UDP payload, a datagram or a coalesced run.
_RECV_BYTES = 65535
#: control-message room for a receive: the ``UDP_GRO`` segment size and
#: the ``SO_RXQ_OVFL`` drop count, one 32-bit value each.
_CONTROL_BYTES = 2 * socket.CMSG_SPACE(4)


def _segmentation_offload(sock: socket.socket) -> bool:
    """True when the kernel takes ``UDP_SEGMENT`` sends on ``sock``."""
    try:
        sock.setsockopt(socket.IPPROTO_UDP, _UDP_SEGMENT, 0)
    except OSError:
        return False
    return True


def _receive_offload(sock: socket.socket) -> bool:
    """Turn on ``UDP_GRO`` coalescing on ``sock``; True when accepted."""
    try:
        sock.setsockopt(socket.IPPROTO_UDP, _UDP_GRO, 1)
    except OSError:
        return False
    return True


def offload_support() -> Dict[str, bool]:
    """Which UDP offloads this host's kernel accepts on a fresh socket:
    ``{"UDP_SEGMENT": ..., "UDP_GRO": ...}``.  Where one is refused the
    transport sends (or receives) one datagram per system call."""
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        return {"UDP_SEGMENT": _segmentation_offload(sock),
                "UDP_GRO": _receive_offload(sock)}


def _segments(buffer: bytes, gso: int) -> List[bytes]:
    """The datagrams of one received buffer: the buffer itself, or — a
    run the kernel coalesced (``gso`` > 0) — its ``gso``-byte slices,
    the last one possibly shorter."""
    if not gso:
        return [buffer]
    return [buffer[at:at + gso] for at in range(0, len(buffer), gso)]


def parse_address(text: Union[str, Address]) -> Address:
    """``"host:port"`` (or an ``(host, port)`` pair) to a socket address."""
    if isinstance(text, tuple):
        host, port = text
        return str(host), int(port)
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ParameterError(
            f"address {text!r} is not host:port (e.g. 127.0.0.1:9000)")
    try:
        return host, int(port)
    except ValueError:
        raise ParameterError(f"bad port in address {text!r}") from None


def is_multicast(host: str) -> bool:
    """True when ``host`` is an IPv4 multicast group address."""
    try:
        return ipaddress.ip_address(host).is_multicast
    except ValueError:
        return False


def _stop_check(stop: Any) -> Callable[[], bool]:
    """Normalise a stop flag: callable, threading.Event, or None."""
    if stop is None:
        return lambda: False
    if callable(stop):
        return stop
    if hasattr(stop, "is_set"):
        return stop.is_set
    raise ParameterError(
        "stop must be a callable or an Event-like object with is_set()")


class UdpSubscription(Subscription):
    """A bound UDP socket yielding the data records it receives.

    Parameters
    ----------
    address:
        ``host:port`` to listen on.  A multicast group address joins
        the group (bound on the wildcard address); port 0 picks a free
        port — read :attr:`address` for the actual binding.
    interface:
        Interface IP for multicast membership (loopback by default).
    timeout:
        Default seconds of silence before :meth:`records` gives up.
    buffer_size:
        Requested ``SO_RCVBUF`` — sized for a paced fountain burst.
    """

    def __init__(self, address: Union[str, Address],
                 interface: str = "127.0.0.1",
                 timeout: float = 5.0,
                 buffer_size: int = DEFAULT_RCVBUF):
        host, port = parse_address(address)
        self.timeout = float(timeout)
        self._manifest: Optional[dict] = None
        #: data-record size the adopted manifest describes (None before
        #: one is adopted, or when it names no usable geometry).
        self._record_bytes: Optional[int] = None
        self._pending: List[bytes] = []
        self._closed = False
        #: source address of the last well-formed datagram — where
        #: feedback replies go.
        self._sender: Optional[Address] = None
        #: feedback frames actually sent back up the control plane.
        self.feedback_sent = 0
        #: every datagram received, well-formed or not.
        self.datagrams = 0
        #: data records yielded (``records_yielded / datagrams`` approaches the
        #: sender's coalescing factor on a clean path).
        self.records_yielded = 0
        #: data frames whose framing failed to parse (foreign senders).
        self.malformed = 0
        #: datagrams the kernel dropped for want of receive-buffer room,
        #: as of the last one received (``SO_RXQ_OVFL``; stays 0 where
        #: the socket does not report it).
        self.kernel_drops = 0
        self._manifest_conflicts = 0
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM,
                             socket.IPPROTO_UDP)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF,
                            int(buffer_size))
            _receive_offload(sock)
            try:
                sock.setsockopt(socket.SOL_SOCKET, _SO_RXQ_OVFL, 1)
            except OSError:
                pass
            if is_multicast(host):
                # Several group members may share one port on this
                # host; unicast binds stay exclusive so a double fetch
                # fails loudly instead of starving silently.
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                sock.bind(("", port))
                sock.setsockopt(
                    socket.IPPROTO_IP, socket.IP_ADD_MEMBERSHIP,
                    socket.inet_aton(host) + socket.inet_aton(interface))
            else:
                sock.bind((host, port))
        except OSError:
            sock.close()
            raise
        self.socket = sock
        self._host = host

    @property
    def address(self) -> Address:
        """The address a sender should target to reach this subscription."""
        return self._host, self.socket.getsockname()[1]

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.socket.close()

    @property
    def manifest_conflicts(self) -> int:
        """Manifest frames heard that differ from the adopted one (a
        restarted or foreign sender); each was ignored."""
        return self._manifest_conflicts

    def __repr__(self) -> str:
        where = "closed" if self._closed else "%s:%d" % self.address
        return (f"UdpSubscription({where}, datagrams={self.datagrams}, "
                f"records={self.records_yielded}, malformed={self.malformed}, "
                f"kernel_drops={self.kernel_drops}, "
                f"manifest_conflicts={self.manifest_conflicts}, "
                f"feedback_sent={self.feedback_sent})")

    def _recv(self) -> Optional[Tuple[bytes, Address, int]]:
        """One received buffer, under the socket's current timeout.

        ``(buffer, sender, gso)``: a datagram (``gso`` 0), or a run of
        datagrams ``UDP_GRO`` coalesced, ``gso`` bytes each but the
        last (:func:`_segments` takes it apart).  A buffer the kernel
        had to truncate is counted malformed and skipped.  None when a
        non-blocking poll finds the queue empty, or once the
        subscription was closed (from another thread) mid-wait; a
        blocking wait that hears nothing raises.
        """
        try:
            while True:
                data, control, flags, addr = self.socket.recvmsg(
                    _RECV_BYTES, _CONTROL_BYTES)
                gso = 0
                for level, kind, value in control:
                    if level == socket.IPPROTO_UDP and kind == _UDP_GRO:
                        gso = int.from_bytes(value[:4], sys.byteorder)
                    elif level == socket.SOL_SOCKET and kind == _SO_RXQ_OVFL:
                        self.kernel_drops = int.from_bytes(value[:4],
                                                           sys.byteorder)
                if not flags & socket.MSG_TRUNC:
                    return data, addr, gso if gso < len(data) else 0
                self.datagrams += 1
                self.malformed += 1
        except BlockingIOError:
            return None
        except socket.timeout:
            raise ProtocolError(
                f"no datagrams on {self.address[0]}:{self.address[1]} "
                f"within {self.socket.gettimeout():.1f}s — is the "
                "sender running (and pointed here)?") from None
        except OSError:
            if self._closed:
                return None
            raise

    def send_feedback(self, report: FeedbackReport) -> bool:
        """Fire one feedback frame back at the sender's source address.

        Best-effort like everything on this transport: False (not an
        error) before any datagram has revealed the sender, or when the
        socket refuses the send.
        """
        if self._sender is None or self._closed:
            return False
        frame = pack_frame(FRAME_FEEDBACK, report.encode())
        try:
            self.socket.sendto(frame, self._sender)
        except OSError:
            return False
        self.feedback_sent += 1
        return True

    def _learn_manifest(self, body: bytes) -> None:
        """Adopt the first well-formed manifest frame — for good.

        The receiver session is bound to the manifest it was built
        from, so a later frame that says otherwise could only re-key
        the size filter against the stream being decoded: it is counted
        in :attr:`manifest_conflicts` and ignored (an identical re-send,
        the in-band norm, is a no-op).  A body ``parse_manifest``
        refuses is only counted malformed, and so is a manifest whose
        records are too long to frame: no sender can send that stream.
        The data-record size the manifest describes is derived here,
        once, for the per-datagram filter.
        """
        try:
            manifest = parse_manifest(body)
        except ProtocolError:
            self.malformed += 1
            return
        if self._manifest is None:
            try:
                size = record_size(manifest)
            except ProtocolError:
                size = None
            if size is not None and size > MAX_FRAME_BODY:
                self.malformed += 1
            else:
                self._manifest, self._record_bytes = manifest, size
        elif manifest != self._manifest:
            self._manifest_conflicts += 1

    def manifest(self, timeout: Optional[float] = None) -> dict:
        """Wait for a manifest frame (buffering data frames meanwhile)."""
        self.socket.settimeout(
            self.timeout if timeout is None else float(timeout))
        while self._manifest is None:
            heard = self._recv()
            if heard is None:
                raise ProtocolError(
                    "subscription closed before a manifest frame arrived")
            self._collect(*heard, self._pending)
        return self._manifest

    def _wrong_size(self, body: bytes) -> bool:
        """True (and counted) for a data record the manifest rules out."""
        size = self._record_bytes
        if size is None or len(body) == size:
            return False
        self.malformed += 1
        return True

    def _collect(self, buffer: bytes, addr: Address, gso: int,
                 batch: List[bytes]) -> None:
        """Parse one received buffer's frames into ``batch`` (data bodies
        only), a datagram at a time (``gso``: see :meth:`_recv`).

        The one datagram loop: a datagram either parses whole or is
        discarded whole (no half-delivered prefixes), the first
        manifest frame is adopted, and — once it is — data records of
        any other size (foreign senders, a repro sender restarted with
        a different geometry) are counted in :attr:`malformed` and
        skipped, not handed to the decoder.
        """
        for datagram in _segments(buffer, gso):
            self.datagrams += 1
            try:
                frames = list(iter_frames(datagram))
            except ProtocolError:
                self.malformed += 1
                continue
            self._sender = addr
            for frame_type, body in frames:
                if frame_type == FRAME_MANIFEST:
                    self._learn_manifest(body)
                elif frame_type == FRAME_DATA and not self._wrong_size(body):
                    batch.append(body)

    def _queued(self, heard: Tuple[bytes, Address, int]
                ) -> List[Tuple[bytes, Address, int]]:
        """``heard`` and whatever else already sits in the kernel queue."""
        drain = []
        self.socket.settimeout(0.0)
        while heard is not None:
            drain.append(heard)
            heard = self._recv()
        return drain

    def _drain_records(self, drain: List[Tuple[bytes, Address, int]]
                       ) -> Union[List[bytes], np.ndarray]:
        """The data records of a drain's buffers, in arrival order.

        What :meth:`_collect` gives a datagram at a time — records,
        counters, adopted manifest, remembered sender — in one pass
        where the drain has the shape a data stream has.  Buffers
        heard before a manifest has fixed the record size take
        :meth:`_collect`.  Of the rest, those that are whole runs of
        right-sized data frames (first byte and length pick them, one
        comparison over the joined buffer confirms every frame head)
        become one ``(n, record_size)`` array, and only the others
        (manifests, feedback, foreign traffic) are parsed frame by
        frame.  A coalesced buffer that looks like one run, cut into
        segments of whole frames, is taken as it stands — every segment
        then starts on a frame head the comparison checks — and any
        other is taken apart first, each of its datagrams judged alone.
        Where arrival order is at stake — a record came before the
        manifest, one of the others could carry a data record too (the
        frame head occurs somewhere in it), or a picked buffer's heads
        do not hold — the whole drain takes :meth:`_collect`.
        """
        batch: List[bytes] = []
        told = 0
        while told < len(drain) and self._record_bytes is None:
            # no telling a run before a manifest says how long a record is
            self._collect(*drain[told], batch)
            told += 1
        drain = drain[told:]
        size = self._record_bytes
        if size is not None and not batch:
            head = frame_head(FRAME_DATA, size)
            step = len(head) + size

            def looks_like_run(data: bytes) -> bool:
                return len(data) % step == 0 and data[:1] == head[:1]

            drain = [piece for data, addr, gso in drain for piece in (
                [(data, addr, gso)]
                if not gso or gso % step == 0 and looks_like_run(data)
                else [(part, addr, 0) for part in _segments(data, gso)])]
            is_run = [looks_like_run(data) for data, _, _ in drain]
            records = None
            if not any(head in data
                       for (data, _, _), run in zip(drain, is_run) if not run):
                records = unframe_records(b"".join(
                    [data for (data, _, _), run in zip(drain, is_run) if run]),
                    size)
            if records is not None:
                for (data, addr, gso), run in zip(drain, is_run):
                    if run:
                        self.datagrams += -(-len(data) // gso) if gso else 1
                        self._sender = addr
                    else:
                        self._collect(data, addr, gso, batch)
                return records
        for data, addr, gso in drain:
            self._collect(data, addr, gso, batch)
        return batch

    def record_batches(self, timeout: Optional[float] = None
                       ) -> Iterator[Union[List[bytes], np.ndarray]]:
        """One batch per socket drain: everything queued when we poll.

        Blocks for the first datagram of a poll (honouring the silence
        timeout), then empties the kernel's receive queue without
        blocking — so a burst that arrived while the decoder was busy
        becomes a single ingest call instead of one wakeup per packet
        (and, with ``UDP_GRO``, a run of datagrams one receive).
        Records buffered while :meth:`manifest` waited come first.  A
        batch is a sequence of records: a list of ``bytes``, or — a
        drain of nothing but data datagrams and control frames — one
        ``(n, record_size)`` uint8 array whose rows are the records.
        """
        wait = self.timeout if timeout is None else float(timeout)
        batch = [body for body in self._pending
                 if not self._wrong_size(body)]
        self._pending.clear()
        if batch:
            self.records_yielded += len(batch)
            yield batch
        while not self._closed:
            self.socket.settimeout(wait)
            heard = self._recv()
            if heard is None:
                return
            batch = self._drain_records(self._queued(heard))
            if len(batch):
                self.records_yielded += len(batch)
                yield batch


#: one destination's injected loss is a plain channel crossing; the
#: serve reads a window's verdicts at once through
#: :meth:`LossyChannel.delivery_mask`.
_LossStream = LossyChannel


class UdpTransport(Transport):
    """Spray a packet stream over real UDP sockets.

    Parameters
    ----------
    destinations:
        Addresses (``"host:port"`` strings or pairs) every data frame
        is sent to — unicast receivers and/or multicast groups.
    bind:
        Optional local ``host:port`` for the sending socket.
    pace:
        Token-bucket rate in packets per second (``None`` = unpaced).
    loss:
        Injected loss, applied per packet per destination *before* the
        socket — test-channel erasure with real-socket delivery: a
        Bernoulli probability, or any :class:`~repro.net.loss.LossModel`
        (e.g. ``GilbertElliottLoss`` for bursty-channel acceptance
        runs).  Each destination gets an independent loss channel,
        kept for the transport's lifetime.
    seed:
        RNG seed for the injected loss (``None`` draws fresh entropy).
    manifest_interval:
        Data packets between in-band manifest frames.
    interface:
        Interface IP for multicast sends (loopback by default).
    ttl:
        Multicast TTL (1 = link-local, the loopback-safe default).
    """

    name = "udp"

    def __init__(self, destinations: Sequence[Union[str, Address]],
                 *,
                 bind: Optional[Union[str, Address]] = None,
                 pace: Optional[float] = None,
                 loss: Union[float, LossModel] = 0.0,
                 seed: Optional[int] = None,
                 manifest_interval: int = 64,
                 interface: str = "127.0.0.1",
                 ttl: int = 1):
        self.destinations = [parse_address(dest) for dest in destinations]
        if not self.destinations:
            raise ParameterError("need at least one destination address")
        self.bind = None if bind is None else parse_address(bind)
        self.pace = pace
        # the loss channel's and the pacer's own checks, before a serve
        # binds a socket
        self.loss = as_loss_model(loss)
        if pace is not None:
            TokenBucket(pace)
        self.seed = seed
        #: one independent loss channel per destination (none for a
        #: loss that never drops).
        self._channels = None if not self.loss.expected_loss_rate() else [
            _LossStream(self.loss, ensure_rng(None) if seed is None
                        else spawn_rng(seed, i))
            for i in range(len(self.destinations))]
        self.manifest_interval = int(manifest_interval)
        if self.manifest_interval < 1:
            raise ParameterError("manifest_interval must be >= 1")
        self.interface = interface
        self.ttl = int(ttl)
        self._multicast = any(is_multicast(host)
                              for host, _ in self.destinations)
        self._subscribed = 0

    def subscribe(self, address: Optional[Union[str, Address]] = None,
                  **options: Any) -> UdpSubscription:
        """Bind a receiver socket.

        With no ``address`` the next unclaimed destination is bound —
        the loopback convenience that lets tests and examples stand up
        sender and receivers from one transport object.  Pass an
        explicit ``address`` (e.g. from another process) otherwise.
        """
        if address is None:
            if self._subscribed >= len(self.destinations):
                raise ProtocolError(
                    f"all {len(self.destinations)} destinations already "
                    "have local subscriptions; pass address= explicitly")
            address = self.destinations[self._subscribed]
            self._subscribed += 1
        return UdpSubscription(address, interface=self.interface, **options)

    # -- sending ---------------------------------------------------------------

    def serve(self, session: Any, *,
              count: Optional[int] = None,
              duration: Optional[float] = None,
              stop: Any = None,
              policy: Optional[AdaptivePolicy] = None,
              feedback: Optional[Callable[[FeedbackReport], Any]] = None,
              adapt_every: int = 64) -> ServeReport:
        """Pump the session's stream into the sockets.

        Runs until ``count`` emissions, ``duration`` seconds, or the
        ``stop`` flag (callable or Event) — whichever comes first; with
        none given it serves forever, which is exactly what a fountain
        server does (interrupt it to stop).

        Receivers fire ``FRAME_FEEDBACK`` replies at the serve's source
        port.  Every ``adapt_every`` emissions, and once more before the
        socket closes, the serve reads whatever waits there without
        blocking.  With ``policy=`` it folds every report into the
        policy and then applies its decision: the token bucket
        retargets to ``pace * rate_scale``, lagging blocks get heavier
        schedule weight (via the source's ``reweight``), and the serve
        stops as soon as every known receiver reports a complete decode
        — the closed-loop path that lets an adaptive sender quit while
        an open-loop one is still provisioning for the worst case.  An
        adaptive serve with no explicit bound is additionally capped at
        the emission-budget limit so a fade that swallows all feedback
        cannot spin it forever.  ``feedback`` (a callable) observes
        every decoded report; bodies are decoded only when one of the
        two is given.  Stray datagrams are counted in
        ``malformed_frames`` and a send the kernel refuses in
        ``socket_errors``; neither ends the serve.  ``adapt_every``, the
        twin of the memory serve's ``report_every``, stays an option for
        the same reason: tests hold the serve to its per-packet oracle
        at several cadences.

        Emissions are drawn a window at a time
        (:meth:`~repro.transfer.server.TransferServer.record_window`,
        framed in one buffer).  Consecutive frames bound for one
        destination leave as one datagram — a slice of that buffer — for
        as long as it stays within :data:`~repro.net.transport.base.
        DATAGRAM_BUDGET`: a run ends at the budget, at a frame the loss
        channel drops for that destination, before a manifest frame
        (always a datagram of its own), before the token bucket sleeps
        (a paced stream never parks a frame behind a sleep), and
        wherever the window or the serve ends.  Each window is planned
        once — its manifest rows and the rows each destination's loss
        channel drops fix every datagram's bounds — and the loop steps
        a datagram at a time.  It stops between datagrams for the
        checks above only where one can fire: at each manifest and each
        ``adapt_every`` point, and, when a ``stop`` flag, a
        ``duration`` or a pace is given, at every emission — so
        ``stop`` is asked, the clock read and a token spent once per
        emission, and a sleep cuts every open run short before it.
        When the serve ends with part of a window
        unsent the source takes those emissions back (``unwind``), and
        so does every loss channel its verdicts, so a later serve — or
        ``packets()`` — continues the stream from the last frame that
        reached the socket; ``emitted`` / ``delivered`` / ``dropped``
        count frames, as always, and ``datagrams`` the data datagrams
        they left in.

        A destination's datagrams reach the kernel a run at a time:
        equal-sized ones (and one shorter last one) gather into a batch
        that leaves in one ``UDP_SEGMENT`` ``sendmsg`` of at most 64
        segments and 65,507 bytes, which the kernel cuts back into
        exactly those datagrams.  A batch goes out wherever every
        destination's runs are cut above (a manifest, a sleep, the end
        of a window or of the serve), and a datagram wider than the
        budget — too wide for a segment — goes alone.  A batch of one is a
        ``sendto``; a kernel that refuses the offload outright (it sent
        nothing) gets the batch a datagram at a time, and every datagram
        after it.  The socket blocks, so each datagram is in the kernel
        when the call that sent it returns.
        """
        if adapt_every < 1:
            raise ParameterError(
                f"adapt_every must be >= 1, got {adapt_every}")
        should_stop = _stop_check(stop)
        adaptive = policy is not None
        listening = adaptive or feedback is not None
        if adaptive and count is None:
            count = EMISSION_LIMIT_FACTOR * session.total_k
        bucket = None if self.pace is None else TokenBucket(self.pace)
        # every emission is a point where the serve may stop or sleep
        stepping = stop is not None or duration is not None \
            or bucket is not None
        streams = self._channels
        # The transfer server hands over whole windows of wire records
        # and takes back what a stop leaves unsent.
        source = session.source
        block_ks = session.codec.plan.block_ks
        manifest_frame = pack_frame(
            FRAME_MANIFEST,
            json.dumps(session.manifest()).encode("utf-8"))
        interval = self.manifest_interval
        emitted = delivered = manifest_frames = 0
        feedback_frames = datagrams = errors = malformed = 0
        dests = range(len(self.destinations))
        # The open window's plan: its frames as one buffer of ``rows``
        # frames of ``step`` bytes (``per`` to a datagram), the first
        # ``done`` of them handed over; and per destination the rows
        # its loss channel drops (``gone``) and the sorted rows a run
        # may not cross (``stops``: those, each manifest row and
        # ``rows``).  ``rows`` is 0 between windows.
        rows = done = step = per = 0
        wire = memoryview(b"")
        gone: List[Collection[int]] = []
        stops: List[List[int]] = []
        # Each destination's open run begins at the first surviving
        # window row at or after ``opened``.
        opened = [0] * len(dests)
        # Each destination's datagrams not yet handed to the kernel:
        # slices of ``wire``, equal-sized but for a shorter last one.
        batches: List[List[memoryview]] = [[] for _ in dests]

        def send(datagram: Any, dest: Address) -> None:
            """One datagram to the kernel; a refusal is counted."""
            nonlocal errors
            try:
                sock.sendto(datagram, dest)
            except OSError:
                # A full device queue, or ICMP chatter once a unicast
                # receiver has left: a fountain sender shrugs, but the
                # count is reported so operators can see it.
                errors += 1

        def send_batch(di: int) -> None:
            """Hand destination ``di``'s batch to the kernel."""
            nonlocal segmenting
            batch, dest = batches[di], self.destinations[di]
            if len(batch) > 1:
                try:
                    sock.sendmsg(batch, [(socket.IPPROTO_UDP, _UDP_SEGMENT,
                                          _SEGMENT_SIZE.pack(len(batch[0])))],
                                 0, dest)
                    batch.clear()
                    return
                except OSError:
                    segmenting = False
            for datagram in batch:
                send(datagram, dest)
            batch.clear()

        def send_runs(row: int, cut: bool) -> None:
            """Every destination's datagrams that are due before row
            ``row``'s checks — and, with ``cut``, every frame before the
            row, the run open there cut short, and the destination's
            batch — to the kernel.

            A run begins at the first surviving row and ends after
            ``per`` frames or at the next stop, whichever comes first.
            It is due once its end is known: right after its last frame
            when the budget ended it, else at the row that did (the cut
            before a manifest row or at the window end, a dropped row).
            So before row ``row``'s checks a run of ``per`` frames is
            due when it ends at or before ``row``, a shorter one when it
            ends before it.  Each datagram joins its destination's
            batch, which goes to the kernel before a wider datagram
            joins or one would pass 65,507 bytes, after a shorter one
            joins, at 64 segments, and at a cut.
            """
            nonlocal datagrams
            for di in dests:
                batch, dead, ahead = batches[di], gone[di], stops[di]
                begin = opened[di]
                while True:
                    while begin in dead:
                        begin += 1
                    if begin >= row:
                        break
                    # the runs from here to the next stop: ``per`` frames
                    # each, the last one shorter; those before ``last``
                    # go now
                    stop = ahead[bisect_right(ahead, begin)]
                    if cut or stop < row:
                        last = min(stop, row)
                    else:
                        last = begin + (row - begin) // per * per
                    for low in range(begin, last, per):
                        high = min(low + per, last)
                        datagrams += 1
                        size = (high - low) * step
                        seg = len(batch[0]) if batch else size
                        if (size > seg
                                or len(batch) * seg + size > _MAX_SEND_BYTES):
                            send_batch(di)
                            seg = size
                        batch.append(wire[low * step:high * step])
                        if (size < seg or len(batch) == _MAX_SEGMENTS
                                or not segmenting or size > DATAGRAM_BUDGET):
                            send_batch(di)
                    begin = last
                    if last < stop:
                        break
                opened[di] = begin
                if cut:
                    send_batch(di)

        def close_window() -> int:
            """Send and count the window's first ``done`` rows; hand
            the rest back to the source and the loss channels, and
            return how many that was."""
            nonlocal rows, emitted, delivered
            send_runs(done, cut=True)
            emitted += done
            delivered += done * len(dests) - sum(
                row < done for dead in gone for row in dead)
            unsent, rows = rows - done, 0
            if unsent:
                # Stopped (or interrupted) mid-window: the source and
                # the loss channels resume from the last frame handed
                # to the socket, no id or verdict skipped.
                source.unwind(unsent)
                for stream in streams or ():
                    stream.unwind(unsent)
            return unsent

        def listen() -> None:
            """Everything queued on the reply port, without blocking:
            each feedback report handed out (when listening), any other
            datagram or frame counted malformed."""
            nonlocal errors, malformed, feedback_frames
            now = time.perf_counter() - start
            while True:
                try:
                    data = sock.recv(_RECV_BYTES, socket.MSG_DONTWAIT)
                except BlockingIOError:
                    return
                except OSError:
                    errors += 1
                    return
                try:
                    frames = list(iter_frames(data))
                except ProtocolError:
                    malformed += 1
                    continue
                for frame_type, body in frames:
                    if frame_type != FRAME_FEEDBACK:
                        malformed += 1
                    elif listening:
                        try:
                            report = FeedbackReport.decode(body)
                        except ProtocolError:
                            malformed += 1
                            continue
                        feedback_frames += 1
                        if policy is not None:
                            policy.observe(report, now=now)
                        if feedback is not None:
                            feedback(report)

        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.bind(self.bind or ("0.0.0.0", 0))
            if self._multicast:
                sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_TTL,
                                self.ttl)
                sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_LOOP,
                                1)
                sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_IF,
                                socket.inet_aton(self.interface))
            segmenting = _segmentation_offload(sock)
            start = time.perf_counter()
            deadline = None if duration is None else start + float(duration)
            try:
                while count is None or emitted < count:
                    size = (SERVE_WINDOW if count is None
                            else min(SERVE_WINDOW, count - emitted))
                    if adaptive:
                        # A decision may reweight the schedule from the
                        # next slot on, so a window ends on the emission
                        # it is taken at.
                        decide_at = adapt_every * -(-max(emitted, 1)
                                                    // adapt_every)
                        size = min(size, decide_at - emitted + 1)
                    frames = frame_records(source.record_window(size))
                    rows, step = frames.shape
                    wire = memoryview(frames.reshape(-1))
                    per = max(1, DATAGRAM_BUDGET // step)
                    manifests = range(-emitted % interval, rows, interval)
                    if streams is None:
                        gone = [()] * len(dests)
                        stops = [[*manifests, rows]] * len(dests)
                    else:
                        gone = [set(np.flatnonzero(
                            ~stream.delivery_mask(rows)).tolist())
                            for stream in streams]
                        stops = [sorted(dead.union(manifests, (rows,)))
                                 for dead in gone]
                    opened[:] = [0] * len(dests)
                    # where a check may fire: every row, or the
                    # manifest and adapt_every points
                    looks = range(rows) if stepping else sorted(
                        set(manifests).union(range(-emitted % adapt_every,
                                                   rows, adapt_every)))
                    for row in looks:
                        # the rows before this one count as emitted:
                        # their runs go out now or in the window's last cut
                        done = row
                        send_runs(row, cut=False)
                        if should_stop() or (deadline is not None and
                                             time.perf_counter() >= deadline):
                            break
                        if bucket is not None:
                            slept = bucket.reserve()
                            if slept > 0.0:
                                send_runs(row, cut=True)
                                time.sleep(slept)
                        at = emitted + row
                        if at and at % adapt_every == 0:
                            listen()
                            if adaptive:
                                decision = policy.decide(
                                    block_ks, now=time.perf_counter() - start)
                                if decision.all_complete:
                                    break
                                if bucket is not None:
                                    bucket.set_rate(
                                        self.pace * decision.rate_scale)
                                if decision.weights:
                                    source.reweight(list(decision.weights))
                        if at % interval == 0:
                            send_runs(row, cut=True)
                            for dest in self.destinations:
                                send(manifest_frame, dest)
                            manifest_frames += 1
                    else:
                        done = rows
                    if close_window():
                        break
            finally:
                # The frames of a run still open were counted: they go
                # out even when an exception ends the serve.
                if rows:
                    close_window()
                # One final manifest so late joiners of a finite serve
                # still learn the geometry, and a last read of the reply
                # port.
                for dest in self.destinations:
                    send(manifest_frame, dest)
                manifest_frames += 1
                listen()
        return ServeReport(
            transport=self.name,
            emitted=emitted,
            delivered=delivered,
            duration=time.perf_counter() - start,
            destinations=len(self.destinations),
            manifest_frames=manifest_frames,
            socket_errors=errors,
            feedback_frames=feedback_frames,
            malformed_frames=malformed,
            datagrams=datagrams,
        )
