"""Shared helpers for the backend differential tests.

The vectorized and reference backends must be *observationally
identical*: same spec + seed + loss realisation in, byte-identical
packets and recoveries out.  These helpers run one complete
encode -> lossy channel -> incremental decode round trip under a chosen
backend and capture everything an outside observer could see, so the
tests reduce to ``run_roundtrip("reference", ...) ==
run_roundtrip("vectorized", ...)``.

The loss realisation is drawn from its own rng, outside the backend
under test, so both backends face exactly the same erasures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.codes.backend import use_backend
from repro.codes.registry import REGISTRY, build_code, incremental_decoder

#: seed-mixing constant so the loss stream never collides with the
#: source-data stream derived from the same test seed.
_LOSS_SALT = 0x10555EED


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


def make_source(k: int, payload_size: int, seed: int) -> np.ndarray:
    """Deterministic random ``(k, P)`` uint8 source block."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(k, payload_size), dtype=np.uint8)


def loss_realisation(count: int, loss: float, seed: int) -> np.ndarray:
    """A fixed delivery mask over ``count`` emissions (True = delivered)."""
    rng = np.random.default_rng(seed ^ _LOSS_SALT)
    return rng.random(count) >= loss


def run_roundtrip(backend: str, spec: str, k: int, payload_size: int,
                  seed: int, loss: float = 0.3,
                  emissions: Optional[int] = None,
                  batch_size: Optional[int] = None) -> RoundTrip:
    """One full round trip under ``backend``; see :class:`RoundTrip`.

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
    with use_backend(backend):
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


def assert_backends_identical(spec: str, k: int, payload_size: int,
                              seed: int, loss: float = 0.3,
                              emissions: Optional[int] = None) -> RoundTrip:
    """Run both backends and assert observational identity.

    Returns the reference run so callers can make further assertions
    (e.g. that the recovery actually equals the source).
    """
    reference = run_roundtrip("reference", spec, k, payload_size, seed,
                              loss=loss, emissions=emissions)
    vectorized = run_roundtrip("vectorized", spec, k, payload_size, seed,
                               loss=loss, emissions=emissions)
    assert vectorized.encoded == reference.encoded, \
        f"{spec} k={k} P={payload_size} seed={seed}: encoded bytes differ"
    assert vectorized.complete == reference.complete, \
        f"{spec} k={k} P={payload_size} seed={seed}: decode outcome differs"
    assert vectorized.packets_fed == reference.packets_fed, \
        f"{spec} k={k} P={payload_size} seed={seed}: completion point differs"
    assert vectorized.recovered == reference.recovered, \
        f"{spec} k={k} P={payload_size} seed={seed}: recovered bytes differ"
    return reference


def assert_batched_identical(spec: str, k: int, payload_size: int,
                             seed: int, loss: float = 0.3,
                             batch_sizes: tuple = (1, 3, 17, 256),
                             emissions: Optional[int] = None) -> RoundTrip:
    """Batched intake recovers the exact bytes of one-at-a-time feeding.

    Runs the per-packet reference round trip once, then replays the
    same survivor stream through ``add_packets`` under both backends
    for every batch size: completion outcome and recovered bytes must
    match, and a batch can only overshoot the sequential completion
    point by the slack inside its final chunk.
    """
    sequential = run_roundtrip("reference", spec, k, payload_size, seed,
                               loss=loss, emissions=emissions)
    for backend in ("reference", "vectorized"):
        for batch_size in batch_sizes:
            batched = run_roundtrip(backend, spec, k, payload_size, seed,
                                    loss=loss, emissions=emissions,
                                    batch_size=batch_size)
            label = (f"{spec} k={k} seed={seed} backend={backend} "
                     f"batch={batch_size}")
            assert batched.complete == sequential.complete, \
                f"{label}: decode outcome differs from sequential"
            assert batched.recovered == sequential.recovered, \
                f"{label}: recovered bytes differ from sequential"
            if sequential.complete:
                slack = batch_size - 1
                assert (sequential.packets_fed <= batched.packets_fed
                        <= sequential.packets_fed + slack), \
                    f"{label}: completion point outside chunk slack"
    return sequential


def raptor_encode_pair(backend: str, k: int, payload_size: int,
                       seed: int, **params: float):
    """Raptor intermediates via the cached solve plan and the pre-solve.

    Builds one geometry (through the process-wide cache, so the test
    exercises the exact objects production encoders receive) and runs
    the same source block through both encode paths under ``backend``:
    the recorded-plan replay and the retired per-block peeling
    pre-solve, which stays in the tree precisely to serve as this
    oracle.  Returns ``(plan_bytes, presolve_bytes)``.
    """
    from repro.codes.raptor.cache import cached_raptor_assets
    from repro.codes.raptor.encoder import RaptorEncoder

    source = make_source(k, payload_size, seed)
    with use_backend(backend):
        assets = cached_raptor_assets(k, seed=seed, **params)
        fast = RaptorEncoder(assets.geometry, source,
                             plan=assets.encode_plan())
        slow = RaptorEncoder(assets.geometry, source)
    return fast.intermediates.tobytes(), slow.intermediates.tobytes()


# -- eager droplet intake (the deferred Raptor intake's oracle) -----------------


def eager_raptor_decoder(geometry, payload_size=None):
    """A Raptor decoder that turns every droplet into an equation on
    arrival — the intake exactly as it ran before systematic rows were
    held back, for ``tests/test_batched_ingest.py`` to hold the
    deferred intake to: same completing packet, bytes, counters and
    ``min_additional_packets`` after every call."""
    from repro.codes.raptor.decoder import RaptorDecoder

    class EagerRaptorDecoder(RaptorDecoder):
        def _add_one(self, index, payload, drop_late):
            self._bank(index, payload)
            if (drop_late and self.is_complete) or not self.add_equation(
                    self.spec.neighbours(int(self._esis(index))), payload):
                self._redundant += 1

        def _add_packets_batch(self, indices, payloads):
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
                self._redundant += len(fresh_rows)
                return len(fresh_rows)
            flat, indptr = self.spec.neighbour_block(self._esis(ids))
            contributed = self.add_equations(indptr, flat, rhs)
            self._redundant += int(np.count_nonzero(~contributed))
            self.maybe_inactivate()
            return len(fresh_rows)

    return EagerRaptorDecoder(geometry, payload_size=payload_size)


# -- per-packet serve loops (the windowed transports' oracles) -----------------
#
# The memory, file and (at the end of the module) UDP serve loops
# exactly as they ran before the send path went windowed: one packet
# pulled, one loss draw per subscriber, one shadow ``receive_index`` at
# a time.  ``tests/test_windowed_serve.py`` holds the windowed ``serve``
# methods to these, byte for byte.


def pack_gf2_rows(coeffs: np.ndarray) -> np.ndarray:
    """A ``(rows, cols)`` bool matrix as the bit-packed uint64 rows the
    reference eliminator (:func:`gf2_gauss_jordan`) works on."""
    coeffs = np.asarray(coeffs, dtype=bool)
    num_rows, num_cols = coeffs.shape
    padded = np.zeros((num_rows, ((num_cols + 63) // 64) * 64), dtype=np.uint8)
    padded[:, :num_cols] = coeffs
    return np.ascontiguousarray(
        np.packbits(padded, axis=1, bitorder="little").view(np.uint64))


def gf2_oracle_solve(coeffs: np.ndarray,
                     rhs: np.ndarray) -> Optional[np.ndarray]:
    """Solve ``coeffs @ x = rhs`` over GF(2) with the reference eliminator.

    ``coeffs`` is a ``(rows, cols)`` bool matrix, ``rhs`` a ``(rows, P)``
    uint8 payload block.  Returns the ``(cols, P)`` solution, or None
    when the system lacks full column rank.  :func:`gf2_gauss_jordan`
    is the one GF(2) eliminator the finisher, the solve plans and these
    tests are all measured against.
    """
    from repro.codes.peeling import gf2_gauss_jordan
    work = np.array(rhs, dtype=np.uint8)
    solved = gf2_gauss_jordan(pack_gf2_rows(coeffs),
                              np.asarray(coeffs).shape[1], work)
    return None if solved is None else work[solved]


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
    source = getattr(session, "source", session)
    reweight = getattr(source, "reweight", None)
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
                    record = packet.to_bytes()
                sub._records.append(record)
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
            if policy is not None and reweight is not None:
                decision = policy.decide(block_ks, now=now)
                if decision.weights:
                    reweight(list(decision.weights))
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
    import json
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


def oracle_udp_serve(transport, session, **options):
    """``UdpTransport.serve``, one packet at a time (synchronous wrapper)."""
    import asyncio

    return asyncio.run(oracle_udp_serve_async(transport, session, **options))


async def oracle_udp_serve_async(transport, session, *, count=None,
                                 duration=None, stop=None, policy=None,
                                 feedback=None, adapt_every=64):
    """``UdpTransport.serve_async`` exactly as it ran before the UDP
    send path went windowed: one packet pulled, one header object and
    ``to_bytes``, one ``pack_frame`` and one ``lost()`` verdict per
    destination at a time.  ``TestUdpServe`` holds the windowed serve
    to the datagrams this puts on the wire."""
    import asyncio
    import json
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
    from repro.net.transport.pacing import TokenBucket
    from repro.net.transport.udp import (
        _YIELD_EVERY,
        _SenderProtocol,
        _stop_check,
        is_multicast,
    )
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
    streams = self._loss_streams()
    source = getattr(session, "source", session)
    reweight = getattr(source, "reweight", None)
    codec = getattr(session, "codec", None)
    block_ks = codec.plan.block_ks if codec is not None else [1]
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
                slept = await bucket.throttle()
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
                if decision.weights and reweight is not None:
                    reweight(list(decision.weights))
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
