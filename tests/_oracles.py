"""Shared test oracles and harnesses.

:func:`run_roundtrip` runs one encode -> lossy channel -> incremental
decode trajectory and captures what an outside observer could see;
``tests/golden/reference_trajectories.json`` holds those trajectories
as the retired one-packet-at-a-time codec paths produced them.
"""

from __future__ import annotations

import asyncio
import enum
import hashlib
import json
import pathlib
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

import numpy as np

from repro.codes.base import ErasureCode
from repro.codes.registry import REGISTRY, build_code, incremental_decoder
from repro.errors import DecodeFailure, ParameterError, ProtocolError
from repro.fountain.metrics import ReceptionStats
from repro.fountain.packets import EncodingPacket
from repro.net.transport.base import FRAME_FEEDBACK, iter_frames
from repro.transfer import BlockPlan, ObjectCodec, TransferServer

#: seed-mixing constant so the loss stream never collides with the
#: source-data stream derived from the same test seed.
_LOSS_SALT = 0x10555EED

#: the reference codec paths' trajectories, recorded once (see the
#: module docstring of ``tests/test_differential_codecs.py``).
REFERENCE_GOLDEN = (pathlib.Path(__file__).resolve().parent / "golden"
                    / "reference_trajectories.json")


@dataclass
class RoundTrip:
    """Everything observable about one encode/loss/decode run."""

    #: every packet the encoder produced, concatenated.
    encoded: bytes
    #: arrival positions (into the survivor stream) the decoder consumed.
    packets_fed: int
    #: whether the decoder completed on the survivors.
    complete: bool
    #: reconstructed source bytes, or None when incomplete.
    recovered: Optional[bytes]

    def digest(self) -> dict:
        """The golden form: counters as they are, bytes as sha256."""
        return {"encoded": sha256(self.encoded),
                "packets_fed": self.packets_fed,
                "complete": self.complete,
                "recovered": (None if self.recovered is None
                              else sha256(self.recovered))}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reference_golden() -> dict:
    """The recorded reference trajectories, by section and case key."""
    return json.loads(REFERENCE_GOLDEN.read_text())


def roundtrip_key(spec: str, k: int, payload_size: int, seed: int,
                  loss: float = 0.3, emissions: Optional[int] = None) -> str:
    return (f"{spec} k={k} P={payload_size} seed={seed} loss={loss} "
            f"emissions={emissions}")


def make_source(k: int, payload_size: int, seed: int) -> np.ndarray:
    """Deterministic random ``(k, P)`` uint8 source block."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(k, payload_size), dtype=np.uint8)


def single_block_server(spec: str, source: np.ndarray, seed: int = 0,
                        data: bool = True) -> TransferServer:
    """A one-block server (12-byte header) over a ``(k, P)`` uint8
    ``source``: ``seed`` is its code-graph and carousel seed, and
    without ``data`` it is the structural stream.  Its code is
    ``server.codec.code_for(0)``."""
    k, payload = source.shape
    codec = ObjectCodec(BlockPlan(source.size, payload, k), code=spec,
                        seed=seed)
    return TransferServer(codec, source.tobytes() if data else None,
                          seed=seed)


def loss_realisation(count: int, loss: float, seed: int) -> np.ndarray:
    """A fixed delivery mask over ``count`` emissions (True = delivered)."""
    rng = np.random.default_rng(seed ^ _LOSS_SALT)
    return rng.random(count) >= loss


def run_roundtrip(spec: str, k: int, payload_size: int, seed: int,
                  loss: float = 0.3, emissions: Optional[int] = None,
                  batch_size: Optional[int] = None) -> RoundTrip:
    """One full round trip; see :class:`RoundTrip`.

    Fixed-rate families emit their whole ``(n, P)`` encoding; rateless
    families mint ``emissions`` droplets (default ``3 * k``).  Survivors
    of the shared loss realisation feed the family's incremental decoder
    one packet at a time until it reports completion — or, with a
    ``batch_size``, through ``add_packets`` in chunks of that size (the
    batched intake path).  A batched run consumes whole chunks, so its
    ``packets_fed`` may overshoot the sequential completion point by up
    to ``batch_size - 1``; recovered bytes are identical either way.
    """
    source = make_source(k, payload_size, seed)
    rateless = REGISTRY.is_rateless(spec)
    if emissions is None:
        emissions = 3 * k if rateless else None
    code = build_code(spec, k, seed=seed)
    if rateless:
        encoded = code.encode(source, emissions)
    else:
        encoded = code.encode(source)
    mask = loss_realisation(encoded.shape[0], loss, seed)
    decoder = incremental_decoder(code, payload_size=payload_size)
    fed = 0
    survivors = np.nonzero(mask)[0]
    if batch_size is None:
        for index in survivors:
            fed += 1
            # add_packet's return value means "was new" for some
            # decoders; is_complete is the portable completion signal.
            decoder.add_packet(int(index), encoded[index])
            if decoder.is_complete:
                break
    else:
        for start in range(0, survivors.size, batch_size):
            chunk = survivors[start:start + batch_size]
            fed += int(chunk.size)
            decoder.add_packets(chunk.tolist(), encoded[chunk])
            if decoder.is_complete:
                break
    complete = bool(decoder.is_complete)
    recovered = decoder.source_data().tobytes() if complete else None
    return RoundTrip(encoded=encoded.tobytes(), packets_fed=fed,
                     complete=complete, recovered=recovered)


def raptor_encode_pair(k: int, payload_size: int, seed: int,
                       **params: float) -> Tuple[bytes, bytes]:
    """Raptor intermediates via the cached solve plan and the pre-solve.

    One cached geometry (the objects production encoders receive), the
    same source block through the recorded-plan replay and the per-block
    peeling pre-solve.  Returns ``(plan_bytes, presolve_bytes)``.
    """
    from repro.codes.raptor.cache import cached_raptor_assets
    from repro.codes.raptor.encoder import RaptorEncoder

    source = make_source(k, payload_size, seed)
    assets = cached_raptor_assets(k, seed=seed, **params)
    fast = RaptorEncoder(assets.geometry, source, plan=assets.encode_plan())
    slow = RaptorEncoder(assets.geometry, source)
    return fast.intermediates.tobytes(), slow.intermediates.tobytes()


# -- per-ESI systematic scan (the chunked scan's oracle) -------------------------


def scalar_systematic_scan(spec, constraint_indptr, constraint_flat, k):
    """``precode._select_systematic`` exactly as it ran before the scan
    drew its candidates in ``neighbour_block`` chunks: one scalar
    ``spec.neighbours(esi)`` walk per ESI, every row assembled one
    ``1 << col`` at a time.  ``tests/test_raptor.py`` holds the chunked
    scan to it, and ``benchmarks/bench_raptor_encode.py`` times the two
    side by side (``scan_speedup``)."""
    basis = {}

    def grows_rank(row: int) -> bool:
        while row:
            top = row.bit_length() - 1
            pivot = basis.get(top)
            if pivot is None:
                basis[top] = row
                return True
            row ^= pivot
        return False

    for j in range(constraint_indptr.size - 1):
        row = 0
        for col in constraint_flat[constraint_indptr[j]:
                                   constraint_indptr[j + 1]]:
            row |= 1 << int(col)
        grows_rank(row)

    chosen = []
    esi = 0
    scan_limit = 4 * spec.k + 64
    while len(chosen) < k:
        if esi >= scan_limit:
            raise ParameterError(
                "systematic index scan did not converge; "
                "try a different seed")
        row = 0
        for col in spec.neighbours(esi):
            row |= 1 << int(col)
        if grows_rank(row):
            chosen.append(esi)
        esi += 1
    return np.asarray(chosen, dtype=np.int64)


# -- eager intake (the held intake's oracles) -----------------------------------
#
# The three native decoders' intake exactly as it ran before arrivals
# were banked until the system is square: every admitted packet is
# shown to the engine on the call that brought it.  Method bodies are
# the parent commit's, verbatim, but for the edits made when the
# decoders' scalar intake went: ``add_packets`` runs the droplet batch
# body at every batch size, ``add_packet`` drops an arrival that finds
# the block complete as that body always did, and the subclass hooks
# are handed one-row arrays.  ``tests/test_batched_ingest.py`` holds the
# shipped decoders to them — same completing packet, bytes, counters
# and ``min_additional_packets`` after every call.


class _EagerDropletIntake:
    """``LTDecoder``'s intake before the hold; nothing is ever held."""

    def _deferred(self, ids, payloads):
        return None

    def _admit(self, index, has_payload):
        if index < 0:
            raise ParameterError("droplet id must be >= 0")
        if index in self._droplet_ids:
            self._duplicates += 1
            return False
        if self.values is not None and not has_payload:
            raise ParameterError("payload decoder requires droplet payloads")
        self._droplet_ids.add(index)
        return True

    def _add_one(self, index, payload, drop_late):
        self._bank(np.asarray([index], dtype=np.int64),
                   None if payload is None else np.asarray(payload)[None])
        if drop_late and self.is_complete:
            self._redundant += 1
            return
        batch = self._deferred(index, payload)
        if batch is None:
            if not self.add_equation(
                    self.spec.neighbours(int(self._esis(index))), payload):
                self._redundant += 1
        elif batch[0].size:
            self._enter(*batch)

    def add_packet(self, index, payload=None):
        index = int(index)
        if not self._admit(index, payload is not None):
            return False
        self._add_one(index, payload, drop_late=True)
        self.maybe_inactivate()
        return True

    def add_packets(self, indices, payloads=None):
        has_payload = payloads is not None
        fresh_rows = []
        for row, index in enumerate(indices):
            index = int(index)
            if self._admit(index, has_payload):
                fresh_rows.append((row, index))
        if not fresh_rows:
            return 0
        rows = np.asarray([r for r, _ in fresh_rows], dtype=np.int64)
        ids = np.asarray([i for _, i in fresh_rows], dtype=np.int64)
        rhs = None
        if has_payload:
            rhs = np.ascontiguousarray(
                np.asarray(payloads, dtype=np.uint8)[rows])
        self._bank(ids, rhs)
        if self.is_complete:
            # Late droplets are still new (and counted), but carry no
            # information worth building equations from.
            self._redundant += len(fresh_rows)
            return len(fresh_rows)
        batch = self._deferred(ids, rhs)
        if batch is not None:
            ids, rhs = batch
        if ids.size:
            self._enter(ids, rhs)
            self.maybe_inactivate()
        return len(fresh_rows)


def eager_lt_decoder(spec, payload_size=None, inactivation_limit=None):
    """An LT decoder that turns every droplet into an equation on
    arrival."""
    from repro.codes.lt.decoder import LTDecoder

    class EagerLTDecoder(_EagerDropletIntake, LTDecoder):
        pass

    return EagerLTDecoder(spec, payload_size=payload_size,
                          inactivation_limit=inactivation_limit)


def eager_raptor_decoder(geometry, payload_size=None):
    """A Raptor decoder that turns every droplet — systematic rows
    included — into an equation on arrival."""
    from repro.codes.raptor.decoder import RaptorDecoder

    class EagerRaptorDecoder(_EagerDropletIntake, RaptorDecoder):
        pass

    return EagerRaptorDecoder(geometry, payload_size=payload_size)


def eager_tornado_decoder(structure, payload_size=None, inactivation_limit=0):
    """A Tornado decoder that shows the engine every packet on arrival
    (spent cap redundancy included)."""
    from repro.codes.tornado.decoder import PeelingDecoder

    class EagerPeelingDecoder(PeelingDecoder):
        def add_packet(self, index, payload=None):
            if not 0 <= index < self.structure.n:
                raise ParameterError(
                    f"packet index {index} outside [0, {self.structure.n})")
            if self._received[index]:
                self._duplicates += 1
                return False
            if self.values is not None and payload is None:
                raise ParameterError(
                    "payload decoder requires packet payloads")
            self._received[index] = True
            self._packets_added += 1
            if not self.known[index]:
                payloads = None if payload is None else np.asarray(
                    payload, dtype=np.uint8)[np.newaxis]
                self.observe_nodes(np.asarray([index], dtype=np.int64),
                                   payloads)
                self.maybe_inactivate()
            return True

        def add_packets(self, indices, payloads=None):
            idx = np.asarray(indices, dtype=np.int64)
            if idx.size == 0:
                return 0
            if np.any((idx < 0) | (idx >= self.structure.n)):
                raise ParameterError("packet index outside encoding range")
            if self.values is not None:
                if payloads is None:
                    raise ParameterError(
                        "payload decoder requires packet payloads")
                payloads = np.asarray(payloads, dtype=np.uint8)
            # Drop indices already received and in-batch duplicates.
            uniq, first = np.unique(idx, return_index=True)
            fresh_mask = ~self._received[uniq]
            fresh = uniq[fresh_mask]
            self._received[fresh] = True
            self._duplicates += int(idx.size - fresh.size)
            self._packets_added += int(fresh.size)
            # Only nodes peeling has not already recovered reach the engine.
            novel = ~self.known[fresh]
            if novel.any():
                self.observe_nodes(
                    fresh[novel],
                    payloads[first[fresh_mask][novel]]
                    if self.values is not None else None)
                self.maybe_inactivate()
            return int(fresh.size)

    decoder = EagerPeelingDecoder(structure, payload_size=payload_size,
                                  inactivation_limit=inactivation_limit)
    # Nothing is ever held: ``held_rows`` reads 0 and a read of partial
    # state has nothing to release.
    decoder._holding = False
    return decoder


# -- GF(2) elimination (the finisher's oracle) ------------------------------


def pack_gf2_rows(coeffs: np.ndarray) -> np.ndarray:
    """A ``(rows, cols)`` bool matrix as the bit-packed uint64 rows
    :func:`gf2_eliminate` works on."""
    coeffs = np.asarray(coeffs, dtype=bool)
    num_rows, num_cols = coeffs.shape
    padded = np.zeros((num_rows, ((num_cols + 63) // 64) * 64), dtype=np.uint8)
    padded[:, :num_cols] = coeffs
    return np.ascontiguousarray(
        np.packbits(padded, axis=1, bitorder="little").view(np.uint64))


def gf2_eliminate(mat: np.ndarray, num_cols: int,
                  rhs: Optional[np.ndarray]
                  ) -> Tuple[Optional[np.ndarray], int]:
    """In-place Gauss-Jordan over GF(2) on a bit-packed matrix.

    Returns ``(pivots, rank)``: ``pivots`` is the row holding each
    column's pivot (so ``rhs[pivots]`` lists the solved values column by
    column), or ``None`` when the matrix lacks full column rank.  Every
    ``rhs`` row is XORed along with its coefficient row; ``rank`` is
    the true row rank.  The tests' oracle for ``factor_gf2``.
    """
    num_rows = mat.shape[0]
    inline = rhs is not None
    pivot_row_of_col = np.full(num_cols, -1, dtype=np.int64)
    row = 0
    for col in range(num_cols):
        if row >= num_rows:
            break
        word, bit = col >> 6, np.uint64(col & 63)
        column_bits = (mat[row:, word] >> bit) & np.uint64(1)
        hits = np.nonzero(column_bits)[0]
        if hits.size == 0:
            continue
        pivot = row + int(hits[0])
        if pivot != row:
            mat[[row, pivot]] = mat[[pivot, row]]
            if inline:
                rhs[[row, pivot]] = rhs[[pivot, row]]
        mask = ((mat[:, word] >> bit) & np.uint64(1)).astype(bool)
        mask[row] = False
        if np.any(mask):
            mat[mask] ^= mat[row]
            if inline:
                rhs[mask] ^= rhs[row]
        pivot_row_of_col[col] = row
        row += 1
    if row < num_cols:
        return None, row
    return pivot_row_of_col, row


def gf2_oracle_solve(coeffs: np.ndarray,
                     rhs: np.ndarray) -> Optional[np.ndarray]:
    """Solve ``coeffs @ x = rhs`` over GF(2) with :func:`gf2_eliminate`.

    ``coeffs`` is a ``(rows, cols)`` bool matrix, ``rhs`` a ``(rows, P)``
    uint8 payload block.  Returns the ``(cols, P)`` solution, or None
    when the system lacks full column rank.
    """
    work = np.array(rhs, dtype=np.uint8)
    solved, _ = gf2_eliminate(pack_gf2_rows(coeffs),
                              np.asarray(coeffs).shape[1], work)
    return None if solved is None else work[solved]


# -- per-packet serve loops (the windowed transports' oracles) -----------------
#
# The memory, file and (at the end of the module) UDP serve loops
# exactly as they ran before the send path went windowed: one packet
# pulled, one loss draw per subscriber, one shadow ``receive_index`` at
# a time.  ``tests/test_windowed_serve.py`` holds the windowed ``serve``
# methods to these, byte for byte.


def oracle_memory_serve(transport, session, *, count=None, extra=0,
                        policy=None, feedback=None, report_every=128):
    """``MemoryTransport.serve``, one packet at a time."""
    import time

    from repro.errors import ReproError
    from repro.net.transport.base import EMISSION_LIMIT_FACTOR, ServeReport
    from repro.protocol.feedback import FeedbackReport, report_from_client
    from repro.transfer.client import TransferClient

    self = transport
    manifest = session.manifest()
    shadows = []
    for sub in self.subscriptions:
        sub._manifest = manifest
        shadows.append(TransferClient(session.codec, payload_size=None))
    limit = (EMISSION_LIMIT_FACTOR * session.total_k
             if count is None else count)
    adaptive = policy is not None or feedback is not None
    block_ks = session.codec.plan.block_ks
    start = time.perf_counter()
    emitted = delivered = dropped = 0
    extra_left = extra
    for packet in session.packets(limit):
        emitted += 1
        record = None
        for sub, shadow in zip(self.subscriptions, shadows):
            if bool(sub.channel.delivery_mask(1)[0]):
                if record is None:
                    record = np.frombuffer(packet.to_bytes(), np.uint8)[None]
                sub._deliver(record)
                delivered += 1
                if not shadow.is_complete:
                    shadow.receive_index(packet.block, packet.index)
            else:
                dropped += 1
        if adaptive and emitted % max(1, report_every) == 0:
            now = time.perf_counter() - start
            for i, (sub, shadow) in enumerate(
                    zip(self.subscriptions, shadows)):
                report = FeedbackReport.decode(report_from_client(
                    shadow, receiver_id=i,
                    loss=sub.channel.observed_loss_rate,
                    packets_used=shadow.total_received).encode())
                if policy is not None:
                    policy.observe(report, now=now)
                if feedback is not None:
                    feedback(report)
            self.drain_feedback(policy, feedback, now=now)
            if policy is not None:
                decision = policy.decide(block_ks, now=now)
                if decision.weights:
                    session.source.reweight(list(decision.weights))
        if count is None and all(s.is_complete for s in shadows):
            if extra_left <= 0:
                break
            extra_left -= 1
    if count is None and not all(s.is_complete for s in shadows):
        incomplete = [i for i, s in enumerate(shadows)
                      if not s.is_complete]
        raise ReproError(
            f"channel too lossy: {limit} emissions were not enough "
            f"for subscribers {incomplete[:8]}")
    return ServeReport(
        transport=self.name,
        emitted=emitted,
        delivered=delivered,
        dropped=dropped,
        duration=time.perf_counter() - start,
        destinations=len(self.subscriptions),
    )


def oracle_file_serve(transport, session, *, count=None, extra=0):
    """``FileTransport.serve``, one packet at a time."""
    import time

    from repro import __version__
    from repro.errors import ReproError
    from repro.net.channel import LossyChannel
    from repro.net.loss import BernoulliLoss
    from repro.net.transport.base import EMISSION_LIMIT_FACTOR, ServeReport
    from repro.net.transport.file import MANIFEST_NAME, STREAM_NAME
    from repro.transfer.client import TransferClient

    self = transport
    channel = LossyChannel(BernoulliLoss(self.loss), rng=self.seed)
    shadow = TransferClient(session.codec, payload_size=None)
    limit = (EMISSION_LIMIT_FACTOR * session.total_k
             if count is None else count)
    self.directory.mkdir(parents=True, exist_ok=True)
    (self.directory / MANIFEST_NAME).unlink(missing_ok=True)
    start = time.perf_counter()
    survivors = 0
    extra_left = extra
    with open(self.directory / STREAM_NAME, "wb") as stream:
        for packet in channel.transmit(session.packets(limit)):
            stream.write(packet.to_bytes())
            survivors += 1
            if count is None and shadow.receive_index(packet.block,
                                                      packet.index):
                if extra_left <= 0:
                    break
                extra_left -= 1
    if count is None and not shadow.is_complete:
        raise ReproError(
            f"channel too lossy: {limit} emissions were not enough "
            f"(blocks incomplete: {shadow.incomplete_blocks[:8]})")
    manifest = session.manifest(
        version=__version__,
        loss=self.loss,
        packets_written=survivors,
    )
    (self.directory / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2))
    return ServeReport(
        transport=self.name,
        emitted=channel.sent,
        delivered=survivors,
        dropped=channel.sent - channel.delivered,
        duration=time.perf_counter() - start,
    )


#: the oracle sender yields to the event loop at least this often when
#: unpaced.
_YIELD_EVERY = 64


class _SenderProtocol(asyncio.DatagramProtocol):
    """Fire-and-forget sender; counts (but survives) socket errors.

    Also the sender's ear: receivers fire ``FRAME_FEEDBACK`` datagrams
    back at this endpoint's source port, and the bodies queue here for
    the serve loop to decode between sends.
    """

    def __init__(self) -> None:
        self.errors = 0
        self.last_error: Optional[Exception] = None
        #: undecoded feedback frame bodies, arrival order.
        self.feedback: Deque[bytes] = deque()
        #: datagrams that were not well-formed feedback (stray chatter).
        self.malformed = 0

    def error_received(self, exc: Exception) -> None:
        # ICMP port-unreachable chatter is normal when a unicast
        # receiver leaves early; a fountain sender shrugs, but the
        # count is reported so operators can see a dead destination.
        self.errors += 1
        self.last_error = exc

    def datagram_received(self, data: bytes, addr) -> None:
        try:
            frames = list(iter_frames(data))
        except ProtocolError:
            self.malformed += 1
            return
        for frame_type, body in frames:
            if frame_type == FRAME_FEEDBACK:
                self.feedback.append(body)
            else:
                self.malformed += 1


def oracle_udp_serve(transport, session, **options):
    """``UdpTransport.serve``, one packet at a time, on the asyncio
    datagram endpoint the UDP sender ran before it became a plain
    socket loop (synchronous wrapper)."""
    return asyncio.run(oracle_udp_serve_async(transport, session, **options))


async def oracle_udp_serve_async(transport, session, *, count=None,
                                 duration=None, stop=None, policy=None,
                                 feedback=None, adapt_every=64):
    """``UdpTransport.serve_async`` exactly as it ran before the UDP
    send path went windowed: one packet pulled, one ``to_bytes``, one
    ``pack_frame`` and one ``lost()`` verdict per destination at a
    time.  ``TestUdpServe`` holds the windowed serve
    to the datagrams this puts on the wire."""
    import socket
    import time

    from repro.errors import ProtocolError
    from repro.net.transport.base import (
        EMISSION_LIMIT_FACTOR,
        FRAME_DATA,
        FRAME_MANIFEST,
        ServeReport,
        pack_frame,
    )
    from repro.net.channel import LossyChannel
    from repro.net.transport.pacing import TokenBucket
    from repro.net.transport.udp import _stop_check, is_multicast
    from repro.utils.rng import ensure_rng, spawn_rng
    from repro.protocol.feedback import FeedbackReport

    self = transport
    should_stop = _stop_check(stop)
    adaptive = policy is not None
    if adaptive and count is None:
        count = EMISSION_LIMIT_FACTOR * session.total_k
    loop = asyncio.get_running_loop()
    transport, protocol = await loop.create_datagram_endpoint(
        _SenderProtocol,
        local_addr=self.bind or ("0.0.0.0", 0))
    sock = transport.get_extra_info("socket")
    if sock is not None and any(is_multicast(host)
                                for host, _ in self.destinations):
        sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_TTL,
                        self.ttl)
        sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_LOOP, 1)
        sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_IF,
                        socket.inet_aton(self.interface))
    bucket = None if self.pace is None else TokenBucket(self.pace)
    # one fresh loss channel per destination for each serve, as the
    # per-packet serve built them
    streams = None if not self.loss.expected_loss_rate() else [
        LossyChannel(self.loss, ensure_rng(None) if self.seed is None
                     else spawn_rng(self.seed, i))
        for i in range(len(self.destinations))]
    block_ks = session.codec.plan.block_ks
    manifest_frame = pack_frame(
        FRAME_MANIFEST,
        json.dumps(session.manifest()).encode("utf-8"))
    start = time.perf_counter()
    deadline = None if duration is None else start + float(duration)
    emitted = delivered = dropped = manifest_frames = 0
    feedback_frames = 0
    try:
        for packet in session.packets(count):
            if should_stop():
                break
            if (deadline is not None
                    and time.perf_counter() >= deadline):
                break
            slept = 0.0
            if bucket is not None:
                slept = bucket.reserve()
                if slept > 0:
                    await asyncio.sleep(slept)
            if slept == 0.0 and emitted % _YIELD_EVERY == 0:
                # A CPU-bound serve below the pace rate never runs
                # the bucket dry; yield anyway so the event loop
                # polls the socket and feedback frames get read.
                await asyncio.sleep(0)
            if protocol.feedback and (adaptive or feedback is not None):
                now = time.perf_counter() - start
                while protocol.feedback:
                    body = protocol.feedback.popleft()
                    try:
                        report = FeedbackReport.decode(body)
                    except ProtocolError:
                        protocol.malformed += 1
                        continue
                    feedback_frames += 1
                    if policy is not None:
                        policy.observe(report, now=now)
                    if feedback is not None:
                        feedback(report)
            if adaptive and emitted and emitted % adapt_every == 0:
                now = time.perf_counter() - start
                decision = policy.decide(block_ks, now=now)
                if decision.all_complete:
                    break
                if bucket is not None and self.pace is not None:
                    bucket.set_rate(self.pace * decision.rate_scale)
                if decision.weights:
                    session.source.reweight(list(decision.weights))
            if emitted % self.manifest_interval == 0:
                for dest in self.destinations:
                    transport.sendto(manifest_frame, dest)
                manifest_frames += 1
            frame = pack_frame(FRAME_DATA, packet.to_bytes())
            for di, dest in enumerate(self.destinations):
                if streams is not None and streams[di].lost():
                    dropped += 1
                    continue
                transport.sendto(frame, dest)
                delivered += 1
            emitted += 1
    finally:
        # One final manifest so late joiners of a finite serve still
        # learn the geometry, then let the endpoint flush and close.
        for dest in self.destinations:
            transport.sendto(manifest_frame, dest)
        manifest_frames += 1
        await asyncio.sleep(0)
        transport.close()
    return ServeReport(
        transport=self.name,
        emitted=emitted,
        delivered=delivered,
        dropped=dropped,
        duration=time.perf_counter() - start,
        destinations=len(self.destinations),
        manifest_frames=manifest_frames,
        socket_errors=protocol.errors,
        feedback_frames=feedback_frames,
        malformed_frames=protocol.malformed,
    )


# -- the seen-set receiver (the one-decoder-contract receivers' oracle) --------
#
# The single-block ``FountainClient`` exactly as it stood before the
# decoder became the only memory of what arrived: its own ``_seen`` dict
# above the decoder, its own statistical attempt schedule, payloads
# retained client-side when the decoder runs structurally.
# ``tests/test_receiver_parity.py`` holds the decoders fed through
# ``repro.codes.registry.feed`` (and a one-block ``TransferClient``) to
# it — same counters after every call, same bytes.  Verbatim but for
# the class name, the mode enum kept here beside it, and one probe in
# ``source_data`` (``getattr(..., "values", None)``: ``SetDecoder`` no
# longer carries the peeling engine's ``values`` attribute).

class ClientMode(enum.Enum):
    """Client decode strategies of paper Section 7.2."""

    INCREMENTAL = "incremental"
    STATISTICAL = "statistical"


class SeenSetFountainClient:
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
        Payload length; ``None`` for structural (index-only) runs.
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
        self.retry_step = max(1, retry_step)
        self.payload_size = payload_size
        self.total_received = 0
        self._seen: Dict[int, Optional[np.ndarray]] = {}
        self._decoded: Optional[np.ndarray] = None
        self._complete = False
        self._next_attempt = int(np.ceil((1 + statistical_margin) * code.k))
        self._decode_attempts = 0
        self._decoder_calls = 0
        if mode is ClientMode.INCREMENTAL:
            self._decoder = incremental_decoder(code,
                                                payload_size=payload_size)
        else:
            self._decoder = None
        # When the decoder keeps payload state itself, the client stores
        # only the ids it has seen — retaining every payload array here
        # as well would double the receive path's memory footprint.
        self._retain_payloads = (
            self._decoder is None
            or getattr(self._decoder, "values", None) is None)

    # -- feeding ---------------------------------------------------------------

    def receive(self, packet: EncodingPacket) -> bool:
        """Ingest one packet; returns True once the source is decodable."""
        return self.receive_index(packet.index, packet.payload)

    def receive_index(self, index: int,
                      payload: Optional[np.ndarray] = None) -> bool:
        """Ingest by raw encoding index (simulation fast path)."""
        if self._complete:
            return True
        self.total_received += 1
        if index not in self._seen:
            self._seen[index] = payload if self._retain_payloads else None
            if self._decoder is not None:
                # INCREMENTAL mode always has a decoder (the registry
                # adapts codes without a native one through SetDecoder).
                self._decoder_calls += 1
                self._decoder.add_packet(index, payload)
                if self._decoder.is_complete:
                    self._complete = True
        if (not self._complete and self.mode is ClientMode.STATISTICAL
                and len(self._seen) >= self._next_attempt):
            self._decode_attempts += 1
            if self.code.is_decodable(self._seen.keys()):
                self._complete = True
            else:
                self._next_attempt = len(self._seen) + self.retry_step
        return self._complete

    def receive_many(self, indices: np.ndarray,
                     payloads: Optional[np.ndarray] = None) -> bool:
        """Batch :meth:`receive_index` with identical accounting.

        Matches the sequential semantics exactly: packets arriving after
        completion are neither counted nor decoded, and the reception
        counters at the moment of completion equal what one-at-a-time
        feeding would have produced.  The guarantee rests on
        :attr:`min_additional` — a provable lower bound on the arrivals
        still needed — so a chunk of that size can only complete on its
        *last* packet, exactly where sequential feeding would stop.

        Statistical mode keeps the per-packet loop (its decode-attempt
        schedule is defined per arrival and the work per packet is a set
        insert, so batching buys nothing).
        """
        if self._complete:
            return True
        if self.mode is not ClientMode.INCREMENTAL:
            for row, index in enumerate(indices):
                self.receive_index(
                    int(index), None if payloads is None else payloads[row])
            return self._complete
        indices = np.asarray(indices, dtype=np.int64)
        pos = 0
        while pos < indices.size and not self._complete:
            take = min(self.min_additional, indices.size - pos)
            if take <= 1:
                # Single-packet steps keep the scalar ingest path (one
                # neighbour derivation, not a batch call for one row).
                self.receive_index(
                    int(indices[pos]),
                    None if payloads is None else payloads[pos])
                pos += 1
                continue
            chunk = indices[pos:pos + take]
            self.total_received += take
            rows = []
            for row, index in enumerate(chunk.tolist()):
                if index not in self._seen:
                    self._seen[index] = (
                        payloads[pos + row] if self._retain_payloads
                        and payloads is not None else None)
                    rows.append(row)
            if rows:
                fresh = chunk[rows]
                fresh_payloads = (None if payloads is None
                                  else payloads[pos:pos + take][rows])
                self._decoder_calls += 1
                self._decoder.add_packets(fresh, fresh_payloads)
                if self._decoder.is_complete:
                    self._complete = True
            pos += take
        return self._complete

    # -- results ---------------------------------------------------------------

    @property
    def is_complete(self) -> bool:
        return self._complete

    @property
    def distinct_received(self) -> int:
        return len(self._seen)

    @property
    def min_additional(self) -> int:
        """Lower bound on further arrivals needed before completion.

        Always at least ``k`` minus the distinct packets seen (no code
        completes below ``k`` distinct); decoders that can prove a
        tighter bound (the LT decoder's rank deficit) raise it.  Batch
        feeders — :meth:`receive_many` and the simulation drivers — cap
        chunks at this value so no chunk can complete before its final
        packet, which is what keeps batched reception counters equal to
        sequential ones.
        """
        if self._complete:
            return 0
        bound = self.code.k - len(self._seen)
        if self._decoder is not None:
            bound = max(bound, getattr(
                self._decoder, "min_additional_packets", 0))
        return max(1, bound)

    @property
    def decoder_calls(self) -> int:
        """Times the incremental decoder was actually invoked.

        Duplicate ids are filtered out before they reach the decoder, so
        this stays bounded by the distinct-packet count no matter how
        many carousel revolutions or mirrored sources repeat an id.
        """
        return self._decoder_calls

    @property
    def decode_attempts(self) -> int:
        """Statistical-mode decode attempts made so far."""
        return self._decode_attempts

    def stats(self) -> ReceptionStats:
        """Reception-efficiency counters up to now."""
        return ReceptionStats(
            source_packets=self.code.k,
            distinct_received=self.distinct_received,
            total_received=self.total_received,
        )

    def source_data(self) -> np.ndarray:
        """The reconstructed ``(k, P)`` source block.

        Raises :class:`~repro.errors.DecodeFailure` when not yet complete
        or when the client ran structurally (no payloads retained).
        """
        if not self._complete:
            raise DecodeFailure("client has not received enough packets")
        if self._decoded is not None:
            return self._decoded
        if getattr(self._decoder, "values", None) is not None:
            self._decoded = self._decoder.source_data()
            return self._decoded
        payloads = {i: p for i, p in self._seen.items() if p is not None}
        if len(payloads) < len(self._seen):
            raise DecodeFailure("client ran in structural mode; no payloads")
        self._decoded = self.code.decode(payloads)
        return self._decoded
