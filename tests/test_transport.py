"""The transport layer: framing, pacing, memory/file/UDP delivery.

The UDP tests bind real loopback sockets and skip gracefully where the
environment forbids them (sandboxed CI runners without network
namespaces).
"""

import functools
import json
import pathlib
import socket
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import api
from repro.errors import ParameterError, ProtocolError, ReproError
from repro.net.transport import (
    FRAME_DATA,
    FRAME_MANIFEST,
    FileTransport,
    MemoryTransport,
    TokenBucket,
    UdpSubscription,
    UdpTransport,
    is_multicast,
    iter_frames,
    pack_frame,
    parse_address,
)
from repro.net.loss import GilbertElliottLoss
from repro.net.transport.base import (
    FEED_BATCH,
    FRAME_FEEDBACK,
    MAX_FRAME_BODY,
    unframe_records,
)
from repro.net.transport.udp import _segments
from repro.protocol.adaptive import AdaptivePolicy
from repro.transfer.codec import MAX_PACKET_SIZE, record_size
from test_api import MANIFEST_DAMAGE, damaged_manifest


def _random_bytes(n, seed):
    return bytes(np.random.default_rng(seed).integers(0, 256, n,
                                                      dtype=np.uint8))


@functools.lru_cache(maxsize=None)
def _small_recording():
    """``(data, manifest bytes, stream bytes)`` of a small recorded
    transfer."""
    data = _random_bytes(3_000, seed=12)
    session = api.SenderSession(data, code="lt", packet_size=100,
                                block_size=1_000, seed=4)
    with tempfile.TemporaryDirectory() as directory:
        path = pathlib.Path(directory)
        session.serve(FileTransport(path, loss=0.1, seed=3))
        return (data, (path / "manifest.json").read_bytes(),
                (path / "stream.pkt").read_bytes())


def _udp_available():
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        probe.bind(("127.0.0.1", 0))
        probe.close()
        return True
    except OSError:
        return False


needs_udp = pytest.mark.skipif(
    not _udp_available(), reason="UDP loopback sockets unavailable")

#: the datagram alphabet of the drain property: a manifest for 20-byte
#: records (12-byte header + 8), so a data frame is 23 bytes.
_MANIFEST = {"kind": "transfer", "code": "lt", "seed": 0, "file_size": 8,
             "packet_size": 8, "block_packets": 1, "num_blocks": 1}
_RECORD = 20
_MANIFEST_FRAME = pack_frame(FRAME_MANIFEST,
                             json.dumps(_MANIFEST).encode("utf-8"))
_frame = st.binary(min_size=_RECORD, max_size=_RECORD).map(
    lambda body: pack_frame(FRAME_DATA, body))
_run = st.lists(_frame, min_size=1, max_size=12).map(b"".join)
_odd_frame = st.binary(max_size=2 * _RECORD).filter(
    lambda body: len(body) != _RECORD).map(
        lambda body: pack_frame(FRAME_DATA, body))


@st.composite
def _lookalike(draw):
    """A run's length, but some frame head says otherwise."""
    run = bytearray(draw(_run))
    frame = draw(st.integers(0, len(run) // (3 + _RECORD) - 1))
    run[frame * (3 + _RECORD) + draw(st.integers(0, 2))] ^= draw(
        st.integers(1, 255))
    return bytes(run)


#: datagrams the one-pass drain takes in its stride: whole runs, and
#: control or broken frames that can carry no right-sized record ...
_QUIET = st.one_of(
    _run, _run, _run, _run,
    st.just(_MANIFEST_FRAME),
    st.just(pack_frame(FRAME_MANIFEST, json.dumps(
        dict(_MANIFEST, packet_size=9)).encode("utf-8"))),
    st.just(pack_frame(FRAME_MANIFEST, b"\xffnot json")),
    st.just(pack_frame(FRAME_FEEDBACK, b"\x00\x07report")),
    _run.map(lambda run: run[:2]),                  # truncated head
    _odd_frame,
)
#: ... and the ones that put arrival order at stake, or look like a run
#: and are not.
_LOUD = st.one_of(
    st.tuples(_run, st.integers(1, _RECORD)).map(   # truncated body
        lambda cut: cut[0][:-cut[1]]),
    # two wrong sizes that add up to two right ones
    st.just(pack_frame(FRAME_DATA, bytes(_RECORD - 1))
            + pack_frame(FRAME_DATA, bytes(_RECORD + 1))),
    st.tuples(_frame, _odd_frame).map(b"".join),
    _frame.map(lambda frame: _MANIFEST_FRAME + frame),  # glued to a manifest
    _frame.map(lambda frame: pack_frame(FRAME_FEEDBACK, frame)),
    _lookalike(),
    st.binary(max_size=70),
)
@st.composite
def _burst(draw):
    """One flow's datagrams as ``UDP_GRO`` hands them over in one buffer:
    two or more of one length — whole runs, or one a look-alike — and
    maybe a shorter last one."""
    frames = draw(st.integers(1, 4))
    run = st.lists(_frame, min_size=frames, max_size=frames).map(b"".join)
    burst = draw(st.lists(run, min_size=2, max_size=6))
    if draw(st.booleans()):
        fake = bytearray(burst[draw(st.integers(0, len(burst) - 1))])
        fake[draw(st.integers(0, frames - 1)) * (3 + _RECORD)
             + draw(st.integers(0, 2))] ^= draw(st.integers(1, 255))
        burst[draw(st.integers(0, len(burst) - 1))] = bytes(fake)
    tail = draw(st.one_of(st.none(), st.tuples(run, st.integers(
        1, frames * (3 + _RECORD) - 1)).map(lambda cut: cut[0][:cut[1]])))
    return burst + ([] if tail is None else [tail])


_hosts = st.integers(1, 3)
#: a drain is a list of ``(datagrams, host)`` buffers: one datagram, or
#: a coalesced burst.
_alone = st.one_of(_QUIET, _LOUD).map(lambda datagram: [datagram])
_DRAINS = st.one_of(
    st.lists(st.tuples(_QUIET.map(lambda datagram: [datagram]), _hosts),
             max_size=12),
    st.lists(st.tuples(_alone, _hosts), max_size=12),
    st.lists(st.tuples(st.one_of(_burst(), _alone), _hosts), max_size=6),
)


@st.composite
def _heard(draw):
    """A drain as ``_recv`` hands it over: ``(buffer, host, gso)``, each
    buffer's ``gso`` its datagrams' length (0 for one datagram) or any
    length below the buffer's."""
    heard = []
    for datagrams, host in draw(_DRAINS):
        buffer = b"".join(datagrams)
        gso = len(datagrams[0]) if len(datagrams) > 1 else 0
        heard.append((buffer, host, draw(st.one_of(
            st.just(gso), st.integers(0, max(0, len(buffer) - 1))))))
    return heard

#: the longest frame body one IPv4 datagram carries (65,507 bytes of
#: UDP payload less the frame head).
_DATAGRAM_BODY = 65_507 - 3
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner,
                                     max_size=3)),
    max_leaves=8)
#: any JSON object as a manifest frame: transfer manifests up to the
#: packet size ceiling, whose records are too long for a frame near the
#: top of it, and objects of any other shape.
_ANY_MANIFEST = st.one_of(
    st.fixed_dictionaries({
        "kind": st.just("transfer"), "code": st.sampled_from(["lt", "rs"]),
        "seed": st.integers(0, 9), "file_size": st.integers(1, 1 << 20),
        "block_packets": st.integers(1, 64),
        "packet_size": st.one_of(
            st.integers(1, 64),
            st.integers(MAX_FRAME_BODY - 20, MAX_PACKET_SIZE + 1))}),
    st.dictionaries(st.text(max_size=12), _JSON, max_size=6))
#: data frame body sizes: short ones and ones near the datagram ceiling.
_BODY_SIZES = st.lists(st.one_of(st.integers(0, 64), st.integers(
    _DATAGRAM_BODY - 600, _DATAGRAM_BODY)), max_size=4)


class TestFraming:
    def test_round_trip_multiple_frames(self):
        datagram = (pack_frame(FRAME_MANIFEST, b'{"k": 1}')
                    + pack_frame(FRAME_DATA, b"abc")
                    + pack_frame(FRAME_DATA, b""))
        frames = list(iter_frames(datagram))
        assert frames == [(FRAME_MANIFEST, b'{"k": 1}'),
                          (FRAME_DATA, b"abc"), (FRAME_DATA, b"")]

    def test_truncated_header_rejected(self):
        with pytest.raises(ProtocolError, match="truncated"):
            list(iter_frames(b"\x01\x00"))

    def test_short_body_rejected(self):
        with pytest.raises(ProtocolError, match="body bytes"):
            list(iter_frames(pack_frame(FRAME_DATA, b"abcd")[:-2]))

    def test_oversize_body_rejected(self):
        with pytest.raises(ProtocolError, match="length"):
            pack_frame(FRAME_DATA, b"x" * 70_000)

    @settings(max_examples=200)
    @given(data=st.one_of(st.binary(max_size=80), _QUIET, _LOUD))
    def test_any_datagram_frames_or_raises_a_protocol_error(self, data):
        """Hostile bytes: ``iter_frames`` takes a datagram apart into
        frames that pack back to it, or raises ``ProtocolError`` —
        never another exception."""
        try:
            frames = list(iter_frames(data))
        except ProtocolError:
            return
        assert b"".join(pack_frame(*frame) for frame in frames) == data

    @settings(max_examples=200)
    @given(data=st.one_of(st.binary(max_size=80), _QUIET, _LOUD),
           size=st.one_of(st.just(_RECORD),
                          st.integers(0, MAX_FRAME_BODY + 8)))
    def test_any_buffer_unframes_as_iter_frames_reads_it(self, data, size):
        """``unframe_records`` gives the bodies exactly when every frame
        ``iter_frames`` reads is a ``size``-byte data frame, else None;
        only a size no frame can state raises (``ProtocolError``)."""
        try:
            records = unframe_records(data, size)
        except ProtocolError:
            assert size > MAX_FRAME_BODY
            return
        try:
            frames = list(iter_frames(data))
        except ProtocolError:
            frames = [(None, b"")]
        if all(kind == FRAME_DATA and len(body) == size
               for kind, body in frames):
            assert [row.tobytes() for row in records] == [
                body for _, body in frames]
        else:
            assert records is None

    @settings(max_examples=200)
    @given(data=st.binary(max_size=200), gso=st.integers(0, 2 ** 32 - 1))
    def test_any_coalesced_buffer_splits_into_its_segments(self, data, gso):
        """``_segments`` cuts a ``UDP_GRO`` buffer into ``gso``-byte
        datagrams (the last one shorter) that join back to it, for any
        ``gso`` the kernel's u32 can state."""
        segments = _segments(data, gso)
        assert b"".join(segments) == data
        if not gso:
            assert segments == [data]
        else:
            assert all(len(part) == gso for part in segments[:-1])
            assert all(0 < len(part) <= gso for part in segments)


class TestTokenBucket:
    def test_burst_then_paced(self):
        clock = [0.0]
        bucket = TokenBucket(100.0, capacity=5.0, clock=lambda: clock[0])
        delays = [bucket.reserve() for _ in range(5)]
        assert delays == [0.0] * 5  # the initial burst rides the bucket
        assert bucket.reserve() == pytest.approx(0.01)  # 1 token of debt
        assert bucket.reserve() == pytest.approx(0.02)

    def test_refill_is_capped(self):
        clock = [0.0]
        bucket = TokenBucket(100.0, capacity=4.0, clock=lambda: clock[0])
        for _ in range(4):
            bucket.reserve()
        clock[0] += 100.0  # a long idle period
        assert bucket.tokens == pytest.approx(4.0)  # not 10_000

    def test_long_run_rate(self):
        clock = [0.0]
        bucket = TokenBucket(200.0, capacity=1.0, clock=lambda: clock[0])
        total = 0.0
        for _ in range(100):
            delay = bucket.reserve()
            total += delay
            clock[0] += delay
        # 100 packets at 200 pps take ~0.5 s of enforced pacing.
        assert total == pytest.approx(0.5, rel=0.05)

    def test_invalid_rate(self):
        with pytest.raises(ParameterError):
            TokenBucket(0.0)


class TestAddressing:
    def test_parse(self):
        assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert parse_address(("h", 1)) == ("h", 1)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParameterError):
            parse_address("no-port")
        with pytest.raises(ParameterError):
            parse_address("h:not-a-number")

    def test_is_multicast(self):
        assert is_multicast("239.1.2.3")
        assert not is_multicast("127.0.0.1")
        assert not is_multicast("example.org")


class TestUdpArguments:
    """A bad argument is a ``ParameterError`` before any socket opens."""

    @pytest.fixture
    def no_sockets(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a socket was opened")

        monkeypatch.setattr(socket, "socket", refuse)

    @pytest.mark.parametrize("options", [
        {"loss": -0.1}, {"loss": 1.0}, {"pace": 0}, {"pace": -5.0}])
    def test_constructor_rejects_what_the_channel_and_pacer_reject(
            self, no_sockets, options):
        with pytest.raises(ParameterError):
            UdpTransport(["127.0.0.1:9"], **options)

    def test_memory_transport_rejects_the_same_loss(self, tmp_path):
        """So does the file transport, both in the constructor: the
        memory one used to fail only at ``subscribe()``, the file one
        once its serve had opened the stream."""
        for loss in (-0.1, 1.0, 1.5):
            with pytest.raises(ParameterError):
                MemoryTransport(loss=loss)
            with pytest.raises(ParameterError):
                FileTransport(tmp_path, loss=loss)
        assert not any(tmp_path.iterdir())

    def test_loss_is_a_probability_or_a_model(self, no_sockets):
        bursty = GilbertElliottLoss.from_loss_and_burst(0.2, 8.0)
        assert UdpTransport(["127.0.0.1:9"], loss=bursty).loss is bursty
        assert UdpTransport(["127.0.0.1:9"],
                            loss=0.25).loss.expected_loss_rate() == 0.25
        with pytest.raises(TypeError):
            UdpTransport(["127.0.0.1:9"], loss_model=bursty)

    @pytest.mark.parametrize("report_every", [0, -1])
    def test_memory_report_every_below_one_is_refused(self, report_every):
        """The UDP serve refuses ``adapt_every < 1``; the memory serve
        used to clamp its twin to 1 and go on."""
        session = api.SenderSession(_random_bytes(4_096, seed=3),
                                    packet_size=256, block_size=4_096)
        transport = MemoryTransport()
        sub = transport.subscribe()
        with pytest.raises(ParameterError, match="report_every"):
            transport.serve(session, count=100, policy=AdaptivePolicy(),
                            report_every=report_every)
        # refused before a window was drawn: the stream has not moved
        assert sub.available == 0
        assert next(session.packets(1)).serial == 0

    @pytest.mark.parametrize("adapt_every", [0, -1])
    def test_adapt_every_below_one_is_refused(self, no_sockets, adapt_every):
        """0 used to divide by zero mid-serve, and a negative value to
        spin on empty windows forever."""
        session = api.SenderSession(_random_bytes(4_096, seed=3),
                                    packet_size=256, block_size=4_096)
        transport = UdpTransport(["127.0.0.1:9"])
        with pytest.raises(ParameterError, match="adapt_every"):
            transport.serve(session, count=100, policy=AdaptivePolicy(),
                            adapt_every=adapt_every)


class TestMemoryTransport:
    def test_two_subscribers_decode_byte_exact(self):
        data = _random_bytes(60_000, seed=1)
        session = api.SenderSession(data, code="tornado-b",
                                    packet_size=512, block_size=16_384,
                                    seed=7)
        transport = MemoryTransport(loss=0.3, seed=11)
        subs = [transport.subscribe(), transport.subscribe()]
        report = session.serve(transport)
        assert report.transport == "memory"
        assert report.destinations == 2
        assert report.emitted <= report.delivered + report.dropped
        for sub in subs:
            receiver = sub.receive()
            assert receiver.is_complete
            assert receiver.data() == data

    def test_deterministic_under_fixed_seed(self):
        data = _random_bytes(20_000, seed=2)

        def run():
            session = api.SenderSession(data, code="lt", packet_size=256,
                                        block_size=8_192, seed=3)
            transport = MemoryTransport(loss=0.25, seed=42)
            sub = transport.subscribe()
            report = session.serve(transport)
            return report, list(sub.records())

        report_a, records_a = run()
        report_b, records_b = run()
        assert report_a.emitted == report_b.emitted
        assert report_a.delivered == report_b.delivered
        assert records_a == records_b

    def test_no_subscribers_rejected(self):
        session = api.SenderSession(b"x" * 4096, packet_size=256,
                                    block_size=4_096)
        with pytest.raises(ProtocolError, match="subscribe"):
            MemoryTransport().serve(session)

    def test_unknown_option_error_names_every_accepted_option(self):
        session = api.SenderSession(b"x" * 4096, packet_size=256,
                                    block_size=4_096)
        transport = MemoryTransport()
        transport.subscribe()
        with pytest.raises(ProtocolError) as err:
            transport.serve(session, count=10, adapt_every=3)
        for option in ("count", "extra", "policy", "feedback",
                       "report_every", "adapt_every"):
            assert option in str(err.value)

    def test_explicit_count_emits_exactly(self):
        session = api.SenderSession(_random_bytes(8_192, seed=4),
                                    packet_size=256, block_size=4_096)
        transport = MemoryTransport()
        sub = transport.subscribe()
        report = session.serve(transport, count=10)
        assert report.emitted == 10
        assert sub.available == 10  # lossless: every record lands

    def test_too_lossy_raises(self):
        session = api.SenderSession(_random_bytes(4_096, seed=5),
                                    packet_size=256, block_size=4_096)
        transport = MemoryTransport(loss=0.999, seed=1)
        transport.subscribe()
        with pytest.raises(ReproError, match="too lossy"):
            session.serve(transport)

    def test_manifest_requires_serve(self):
        sub = MemoryTransport().subscribe()
        with pytest.raises(ProtocolError, match="serve"):
            sub.manifest()


class TestFileTransport:
    def test_serve_subscribe_round_trip(self, tmp_path):
        data = _random_bytes(50_000, seed=6)
        session = api.SenderSession(data, code="lt", block_size=16_384,
                                    seed=9, file_name="blob.bin")
        transport = FileTransport(tmp_path / "out", loss=0.2, seed=13)
        report = session.serve(transport, extra=4)
        assert (tmp_path / "out" / "stream.pkt").exists()
        sub = transport.subscribe()
        assert sub.manifest()["file_name"] == "blob.bin"
        assert sub.available == report.delivered
        receiver = api.ReceiverSession.from_subscription(sub)
        assert sub.feed(receiver)
        assert receiver.data() == data

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(ProtocolError, match="manifest"):
            FileTransport(tmp_path).subscribe().manifest()

    @pytest.mark.parametrize("manifest", [
        [1, 2],
        {"kind": "transfer", "code": "lt", "seed": 1, "file_size": 100,
         "block_packets": 4}])
    def test_a_manifest_that_is_no_transfer_manifest(self, tmp_path,
                                                      manifest):
        """A JSON list used to raise ``AttributeError`` here, a manifest
        without ``packet_size`` a ``KeyError``."""
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        (tmp_path / "stream.pkt").write_bytes(bytes(64))
        sub = FileTransport(tmp_path).subscribe()
        with pytest.raises(ProtocolError):
            sub.available
        with pytest.raises(ProtocolError):
            next(sub.record_batches())

    @settings(max_examples=60, deadline=None)
    @given(raw=st.one_of(
        st.binary(max_size=48),
        st.text(max_size=24).map(str.encode),
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=6),
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
                st.sampled_from(["kind", "code", "seed", "file_size"])
                | st.text(max_size=3), inner, max_size=3),
            max_leaves=6).map(lambda value: json.dumps(value).encode())),
        cut=st.none() | st.floats(0.0, 1.0))
    @example(raw=b'{"a": ', cut=None)
    @example(raw=b"\xff\xfe[1,2]", cut=None)
    @example(raw=b"[" * 100_000, cut=None)
    @example(raw=b"", cut=1.0)
    def test_any_manifest_bytes_are_a_manifest_or_a_protocol_error(
            self, tmp_path_factory, raw, cut):
        """Whatever bytes ``manifest.json`` holds — arbitrary ones, JSON
        values, the recorded manifest torn at ``cut`` of its length (or
        whole) — ``manifest()``, ``available`` and ``receive()`` each
        accept a valid manifest or raise ``ProtocolError``."""
        data, manifest, stream = _small_recording()
        body = raw if cut is None else manifest[:round(cut * len(manifest))]
        directory = tmp_path_factory.mktemp("manifest")
        (directory / "manifest.json").write_bytes(body)
        (directory / "stream.pkt").write_bytes(stream)
        sub = FileTransport(directory).subscribe()
        outcomes = []
        for probe in (sub.manifest, lambda: sub.available, sub.receive):
            try:
                outcomes.append(probe())
            except ProtocolError:
                outcomes.append(None)
        if body == manifest:
            assert outcomes[1] == len(stream) // record_size(outcomes[0])
            assert outcomes[2].data() == data
        else:
            assert outcomes[1:] == [None, None]

    def _recorded(self, directory):
        data = _random_bytes(300_000, seed=8)
        session = api.SenderSession(data, code="lt", packet_size=500,
                                    block_size=20_000, seed=9)
        return session.serve(FileTransport(directory, loss=0.1, seed=2),
                             extra=40)

    def test_replay_reads_feed_batch_windows_of_the_file(self, tmp_path):
        report = self._recorded(tmp_path)
        raw = (tmp_path / "stream.pkt").read_bytes()
        sub = FileTransport(tmp_path).subscribe()
        assert sub.available == report.delivered == len(raw) // 516
        batches = list(sub.record_batches())
        assert [len(b) for b in batches[:-1]] == \
            [FEED_BATCH] * (len(batches) - 1)
        assert 0 < len(batches[-1]) <= FEED_BATCH
        assert b"".join(b.tobytes() for b in batches) == raw

    def test_a_manifest_without_a_stream_is_a_protocol_error(self,
                                                            tmp_path):
        self._recorded(tmp_path)
        (tmp_path / "stream.pkt").unlink()
        sub = FileTransport(tmp_path).subscribe()
        with pytest.raises(ProtocolError, match="stream.pkt"):
            sub.available
        with pytest.raises(ProtocolError, match="stream.pkt"):
            next(sub.record_batches())

    def test_a_torn_stream_fails_before_the_first_batch(self, tmp_path):
        self._recorded(tmp_path)
        stream = tmp_path / "stream.pkt"
        stream.write_bytes(stream.read_bytes()[:-7])
        with pytest.raises(ReproError, match="not a multiple"):
            next(FileTransport(tmp_path).subscribe().record_batches())

    def test_send_file_rides_file_transport(self, tmp_path):
        """The api facade and the raw transport agree byte for byte."""
        data = _random_bytes(30_000, seed=7)
        src = tmp_path / "f.bin"
        src.write_bytes(data)
        api.send_file(src, tmp_path / "a", code="tornado-b",
                      block_size=8_192, loss=0.1, seed=5)
        session = api.SenderSession.for_file(src, code="tornado-b",
                                             block_size=8_192, seed=5)
        session.serve(FileTransport(tmp_path / "b", loss=0.1, seed=6))
        stream_a = (tmp_path / "a" / "stream.pkt").read_bytes()
        stream_b = (tmp_path / "b" / "stream.pkt").read_bytes()
        # Serving again continues the fountain stream; a reset replays
        # it from the top, byte for byte (the channel seed matching
        # send_file's seed+1 derivation).
        session.source.reset()
        session.serve(FileTransport(tmp_path / "c", loss=0.1, seed=6))
        assert stream_b == (tmp_path / "c" / "stream.pkt").read_bytes()
        manifest_a = json.loads(
            (tmp_path / "a" / "manifest.json").read_text())
        manifest_b = json.loads(
            (tmp_path / "b" / "manifest.json").read_text())
        assert manifest_a["code"] == manifest_b["code"] == "tornado-b"
        assert len(stream_a) % (16 + 1024) == 0


class TestSessionFacade:
    def test_new_stream_shares_encodings(self):
        data = _random_bytes(30_000, seed=8)
        session = api.SenderSession(data, code="tornado-b",
                                    packet_size=512, block_size=8_192)
        stream = session.new_stream(seed=77)
        assert stream is not session.source
        assert stream._payloads is session.source._payloads
        receiver = api.ReceiverSession(session.manifest())
        for packet in stream.packets():
            if receiver.receive(packet):
                break
        assert receiver.data() == data


# -- real sockets --------------------------------------------------------------


def _serve_to_receivers(data, spec, *, n_receivers=1, loss=0.0, pace=None,
                        block_size=256 * 1024, seed=5, timeout=20.0,
                        in_band_manifest=False):
    """One sender session fanned out to ``n_receivers`` UDP receivers.

    Returns ``(receiver_sessions, serve_report, sender_session)``; any
    receiver-thread exception is re-raised in the caller.
    """
    session = api.SenderSession(data, code=spec, seed=seed,
                                block_size=block_size, file_name="blob")
    subs = [UdpSubscription("127.0.0.1:0", timeout=timeout)
            for _ in range(n_receivers)]
    transport = UdpTransport([sub.address for sub in subs],
                             pace=pace, loss=loss, seed=seed + 1,
                             manifest_interval=32)
    manifest = session.manifest()
    receivers = [api.ReceiverSession(json.loads(json.dumps(manifest)))
                 for _ in subs]
    errors = []

    def drink(sub, receiver):
        try:
            if in_band_manifest:
                receiver = api.ReceiverSession.from_subscription(
                    sub, timeout=timeout)
                receivers[subs.index(sub)] = receiver
            sub.feed(receiver, timeout=timeout)
        except Exception as exc:  # noqa: BLE001 - reported in the caller
            errors.append(exc)

    threads = [threading.Thread(target=drink, args=(sub, receiver))
               for sub, receiver in zip(subs, receivers)]
    for thread in threads:
        thread.start()
    try:
        report = session.serve(
            transport,
            count=200 * session.total_k,
            stop=lambda: all(r.is_complete for r in receivers))
    finally:
        for thread in threads:
            thread.join(timeout=timeout)
        for sub in subs:
            sub.close()
    if errors:
        raise errors[0]
    return receivers, report, session


@needs_udp
class TestUdpUnicast:
    def test_round_trip_with_in_band_manifest(self):
        data = _random_bytes(120_000, seed=21)
        receivers, report, _ = _serve_to_receivers(
            data, "lt", loss=0.1, pace=25_000, in_band_manifest=True)
        assert receivers[0].is_complete
        assert receivers[0].data() == data
        assert report.manifest_frames >= 1
        assert report.dropped > 0  # the injected loss actually fired

    @pytest.mark.parametrize(
        "spec", ["tornado-b", "lt", "rs", "raptor:eps=0.05"])
    def test_megabyte_at_20_percent_loss(self, spec):
        """Acceptance: >= 1 MiB byte-exact over real UDP loopback
        with 20% injected loss, per registry spec string."""
        data = _random_bytes(1_100_000, seed=31)
        # rs blocks stay within GF(2^8): at most 128 packets per block.
        block_size = 128 * 1024 if spec == "rs" else 256 * 1024
        receivers, report, session = _serve_to_receivers(
            data, spec, loss=0.2, block_size=block_size, seed=41)
        receiver = receivers[0]
        assert receiver.is_complete
        assert receiver.data() == data
        assert receiver.code_spec == spec
        assert receiver.packets_used >= session.total_k
        assert report.dropped > 0.1 * report.emitted

    def test_eight_concurrent_receivers_single_encoding(self, monkeypatch):
        """Acceptance: one sender serves >= 8 UDP receivers at once
        from a single shared encoding (one encode, period)."""
        from repro.transfer.codec import ObjectCodec

        encodes = []
        original = ObjectCodec.block_encoder

        def counting(self, data, block):
            encodes.append(block)
            return original(self, data, block)

        monkeypatch.setattr(ObjectCodec, "block_encoder", counting)
        data = _random_bytes(300_000, seed=51)
        receivers, report, session = _serve_to_receivers(
            data, "tornado-b", n_receivers=8, loss=0.05, seed=61)
        assert len(receivers) == 8
        for receiver in receivers:
            assert receiver.is_complete
            assert receiver.data() == data
        assert report.destinations == 8
        # One encode pass for the whole fan-out: each block encoded once.
        assert len(encodes) == session.num_blocks

    def test_repeated_serves_continue_the_loss_stream(self):
        """A destination's loss channel lives as long as the transport:
        two serves of 300 drop the serials one serve of 600 drops."""
        data = _random_bytes(100 * 64, seed=5)

        def dropped(counts):
            session = api.SenderSession(data, code="lt", packet_size=64,
                                        seed=5)
            with UdpSubscription("127.0.0.1:0") as sub:
                transport = UdpTransport([sub.address], loss=0.3, seed=5)
                reports = [session.serve(transport, count=count)
                           for count in counts]
                serials = set()
                with pytest.raises(ProtocolError, match="within"):
                    for batch in sub.record_batches(timeout=0.5):
                        serials.update(int.from_bytes(bytes(record[4:8]),
                                                      "big")
                                       for record in batch)
                assert sub.kernel_drops == 0
            assert sum(report.dropped for report in reports) == len(
                set(range(600)) - serials)
            return set(range(600)) - serials

        once = dropped([600])
        assert 0 < len(once) < 600
        assert dropped([300, 300]) == once

    def test_subscription_times_out_loudly(self):
        sub = UdpSubscription("127.0.0.1:0", timeout=0.2)
        with pytest.raises(ProtocolError, match="within"):
            next(iter(sub.records()))
        sub.close()

    def test_foreign_datagrams_are_counted_not_fatal(self):
        sub = UdpSubscription("127.0.0.1:0", timeout=0.3)
        noise = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        noise.sendto(b"\x07not-a-frame", sub.address)
        with pytest.raises(ProtocolError, match="within"):
            next(iter(sub.records()))
        assert sub.malformed == 1
        noise.close()
        sub.close()

    def test_wrong_size_records_skipped_not_decoded(self):
        """Well-framed foreign data records must not reach the decoder."""
        data = _random_bytes(40_000, seed=23)
        session = api.SenderSession(data, code="lt", seed=3,
                                    block_size=16_384)
        sub = UdpSubscription("127.0.0.1:0", timeout=10.0)
        noise = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        # Valid framing, bogus record size — arrives before any
        # manifest, so it lands in the pre-manifest backlog.
        noise.sendto(pack_frame(FRAME_DATA, b"\x00" * 40), sub.address)
        transport = UdpTransport([sub.address], pace=20_000,
                                 manifest_interval=16)
        holder = {}
        errors = []

        def drink():
            try:
                receiver = api.ReceiverSession.from_subscription(
                    sub, timeout=10.0)
                holder["receiver"] = receiver
                sub.feed(receiver, timeout=10.0)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        thread = threading.Thread(target=drink)
        thread.start()
        import time

        time.sleep(0.2)  # let the noise datagram land first
        noise.sendto(pack_frame(FRAME_DATA, b"\x00" * 40), sub.address)
        session.serve(
            transport, count=200 * session.total_k,
            stop=lambda: holder.get("receiver") is not None
            and holder["receiver"].is_complete)
        thread.join(timeout=10.0)
        noise.close()
        sub.close()
        assert not errors, errors
        assert holder["receiver"].data() == data
        assert sub.malformed >= 1  # the stray records were skipped


    @pytest.mark.parametrize("spec,field,value", [
        ("lt", 3, 9999),            # a block the transfer does not have
        ("tornado-a", 0, 2 ** 31),  # an index beyond the block's n
    ])
    def test_spoofed_record_is_dropped_not_fatal(self, spec, field, value):
        """One well-framed, right-sized hostile record must not end a
        fetch: it is an erasure, counted in ``rejected``."""
        data = _random_bytes(40_000, seed=29)
        session = api.SenderSession(data, code=spec, seed=3,
                                    block_size=16_384)
        receiver = api.ReceiverSession(
            json.loads(json.dumps(session.manifest())))
        sub = UdpSubscription("127.0.0.1:0", timeout=10.0)
        # Queued on the socket before the serve starts, so it is the
        # first record the receiver reads.
        header = [0, 0, 0, 0]
        header[field] = value
        spoof = b"".join(v.to_bytes(4, "big") for v in header) \
            + b"\xAA" * session.plan.packet_size
        assert len(spoof) == receiver.record_size
        noise = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        noise.sendto(pack_frame(FRAME_DATA, spoof), sub.address)
        noise.close()
        errors = []

        def drink():
            try:
                sub.feed(receiver, timeout=10.0)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        thread = threading.Thread(target=drink)
        thread.start()
        try:
            session.serve(UdpTransport([sub.address], pace=20_000),
                          count=200 * session.total_k,
                          stop=lambda: receiver.is_complete or bool(errors))
        finally:
            thread.join(timeout=10.0)
            sub.close()
        assert not thread.is_alive()
        assert not errors, errors
        assert receiver.rejected == 1
        assert receiver.data() == data
        assert receiver.packets_used == receiver.client.total_received
        assert sub.malformed == 0  # well-framed: only the session can tell

    def test_later_manifest_does_not_rekey_a_running_fetch(self):
        """The first manifest a subscription adopts stays for its life:
        a spoofed one (the sender's own, but ``packet_size: 1``) heard
        mid-stream used to re-key the size filter and erase every
        genuine record up to the sender's next in-band manifest."""
        data = _random_bytes(200_000, seed=37)
        session = api.SenderSession(data, code="lt", seed=3,
                                    packet_size=1000)
        sub = UdpSubscription("127.0.0.1:0", timeout=10.0)
        spoof = pack_frame(FRAME_MANIFEST, json.dumps(
            dict(session.manifest(), packet_size=1)).encode("utf-8"))
        noise = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        bound, errors, asked = [], [], []

        def drink():
            try:
                bound.append(api.ReceiverSession.from_subscription(
                    sub, timeout=10.0))
                sub.feed(bound[0], timeout=10.0)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def stop():
            asked.append(None)
            if len(asked) == 2:
                # The genuine manifest and record 0 are on the wire, so
                # the receiver binds to them before it hears this.
                noise.sendto(spoof, sub.address)
            return bool(errors) or bool(bound and bound[0].is_complete)

        thread = threading.Thread(target=drink)
        thread.start()
        try:
            session.serve(UdpTransport([sub.address], pace=20_000),
                          count=200 * session.total_k, stop=stop)
        finally:
            thread.join(timeout=10.0)
            sub.close()
            noise.close()
        assert not thread.is_alive()
        assert not errors, errors
        assert bound[0].data() == data
        assert sub.malformed == 0           # no genuine record was dropped
        assert sub.manifest_conflicts == 1  # the spoof; re-sends are no-ops
        assert "manifest_conflicts=1" in repr(sub)

    @pytest.mark.parametrize("field,damage", MANIFEST_DAMAGE)
    def test_damaged_in_band_manifest_is_a_protocol_error(self, field,
                                                          damage):
        with UdpSubscription("127.0.0.1:0", timeout=2.0) as sub:
            noise = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            noise.sendto(pack_frame(FRAME_MANIFEST, json.dumps(
                damaged_manifest(field, damage)).encode("utf-8")),
                sub.address)
            noise.close()
            with pytest.raises(ProtocolError, match=f"'{field}' must be"):
                api.ReceiverSession.from_subscription(sub)

    @pytest.mark.parametrize("bad", [b"[1, 2]", b"[" * 5000],
                             ids=["array", "deep-nesting"])
    def test_manifest_that_is_not_an_object_is_not_adopted(self, bad):
        """Nesting deeper than the JSON parser recurses used to raise
        ``RecursionError`` out of ``manifest()``, uncounted."""
        manifest = {"code": "lt", "packet_size": 8, "num_blocks": 1}
        with UdpSubscription("127.0.0.1:0", timeout=2.0) as sub:
            noise = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            for body in (bad, json.dumps(manifest).encode("utf-8")):
                noise.sendto(pack_frame(FRAME_MANIFEST, body), sub.address)
            noise.close()
            assert sub.manifest() == manifest
            assert sub.malformed == 1 and sub.manifest_conflicts == 0

    @settings(max_examples=40, deadline=None)
    @given(manifest=_ANY_MANIFEST, sizes=_BODY_SIZES, fitting=st.booleans())
    @example(manifest={"kind": "transfer", "code": "lt", "seed": 0,
                       "file_size": 1 << 20, "block_packets": 16,
                       "packet_size": MAX_PACKET_SIZE},
             sizes=[100], fitting=False)
    def test_any_manifest_then_any_data_ends_only_in_silence(
            self, manifest, sizes, fitting):
        """A manifest frame of any JSON object, then data frames of any
        size: ``record_batches`` yields or counts every frame and ends
        only in its silence timeout.  A manifest whose records no frame
        can carry (a packet size near ``MAX_PACKET_SIZE``) is counted
        malformed, not adopted to size every later drain with."""
        try:
            size = record_size(manifest)
        except ProtocolError:
            size = None
        if fitting and size is not None and size <= _DATAGRAM_BODY:
            sizes = sizes + [size]
        with UdpSubscription("127.0.0.1:0", timeout=0.1) as sub:
            noise = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            noise.sendto(pack_frame(FRAME_MANIFEST, json.dumps(
                manifest).encode("utf-8")), sub.address)
            for body in sizes:
                noise.sendto(pack_frame(FRAME_DATA, bytes(body)),
                             sub.address)
            noise.close()
            yielded = 0
            with pytest.raises(ProtocolError, match="within"):
                for batch in sub.record_batches():
                    yielded += len(batch)
            framable = size is None or size <= MAX_FRAME_BODY
            assert (sub._manifest is not None) == framable
            assert yielded + sub.malformed == len(sizes) + (not framable)

    # -- the one-pass drain against the datagram loop ------------------------------

    @settings(max_examples=300, deadline=None)
    @given(drains=st.lists(_heard(), min_size=1, max_size=3),
           adopted=st.booleans())
    def test_drain_equals_collect_one_buffer_at_a_time(self, drains,
                                                       adopted):
        """Any datagram sequence — runs, manifests, feedback, truncated
        and wrong-size frames, look-alikes, garbage, some of them
        coalesced into one buffer the way ``UDP_GRO`` hands a burst over,
        at their own ``gso`` or any other — parsed a drain at a time
        yields what ``_collect`` yields a buffer at a time: records in
        order, the counters, the adopted manifest, the remembered
        sender."""
        with UdpSubscription("127.0.0.1:0") as fast, \
                UdpSubscription("127.0.0.1:0") as slow:
            got, want = [], []
            if adopted:
                for sub in (fast, slow):
                    sub._collect(_MANIFEST_FRAME, ("10.0.0.9", 9), 0, [])
            for drain in drains:
                drain = [(buffer, ("10.0.0.%d" % host, 9000 + host), gso)
                         for buffer, host, gso in drain]
                batch = fast._drain_records(drain)
                if isinstance(batch, np.ndarray):
                    assert batch.shape[1:] == (fast._record_bytes,)
                    batch = [row.tobytes() for row in batch]
                got += batch
                for heard in drain:
                    slow._collect(*heard, want)
                assert got == want
                for field in ("datagrams", "malformed", "manifest_conflicts",
                              "_sender", "_manifest", "_record_bytes"):
                    assert getattr(fast, field) == getattr(slow, field), field

    def test_small_packet_fetch_rides_ten_records_a_datagram(self):
        """P = 128 over loopback: byte-exact, ten 147-byte frames to a
        datagram — a manifest heard costs itself and the run it cut."""
        data = _random_bytes(300_000, seed=43)
        session = api.SenderSession(data, code="raptor", packet_size=128,
                                    block_size=32_768, seed=7)
        with UdpSubscription("127.0.0.1:0", timeout=10.0) as sub:
            report = session.serve(UdpTransport([sub.address]),
                                   count=session.total_k + 100)
            receiver = api.ReceiverSession.from_subscription(sub)
            sub.feed(receiver)
            assert receiver.data() == data
            assert sub.malformed == 0
            assert sub.records_yielded >= session.total_k
            assert (sub.datagrams <= -(-sub.records_yielded // 10)
                    + 2 * report.manifest_frames)
        assert report.delivered == report.emitted
        assert report.datagrams <= (-(-report.delivered // 10)
                                    + report.manifest_frames)


@needs_udp
class TestUdpMulticast:
    def test_loopback_group_reaches_all_members(self):
        group = "239.66.77.88"
        try:
            first = UdpSubscription(f"{group}:0", timeout=10.0)
            second = UdpSubscription((group, first.address[1]),
                                     timeout=10.0)
        except OSError:
            pytest.skip("multicast membership unavailable")
        data = _random_bytes(60_000, seed=71)
        session = api.SenderSession(data, code="lt", seed=3,
                                    block_size=32_768)
        transport = UdpTransport([first.address], pace=20_000,
                                 manifest_interval=32)
        receivers = [api.ReceiverSession(session.manifest())
                     for _ in range(2)]
        errors = []

        def drink(sub, receiver):
            try:
                sub.feed(receiver, timeout=10.0)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=drink, args=pair)
                   for pair in zip((first, second), receivers)]
        for thread in threads:
            thread.start()
        try:
            session.serve(
                transport, count=200 * session.total_k,
                stop=lambda: all(r.is_complete for r in receivers))
        finally:
            for thread in threads:
                thread.join(timeout=10.0)
            first.close()
            second.close()
        if errors:
            pytest.skip(f"multicast delivery unavailable: {errors[0]}")
        for receiver in receivers:
            assert receiver.is_complete
            assert receiver.data() == data


@needs_udp
class TestUdpCli:
    def test_serve_fetch_round_trip(self, tmp_path):
        from repro.cli import main

        data = _random_bytes(80_000, seed=81)
        src = tmp_path / "f.bin"
        src.write_bytes(data)
        out = tmp_path / "back.bin"
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        codes = {}

        def fetch():
            codes["fetch"] = main(["fetch", f"127.0.0.1:{port}", str(out),
                                   "--timeout", "15"])

        fetcher = threading.Thread(target=fetch)
        fetcher.start()
        import time

        time.sleep(0.4)  # let the fetcher bind before spraying
        codes["serve"] = main([
            "serve", str(src), f"127.0.0.1:{port}",
            "--pace", "10000", "--loss", "0.1", "--loss-seed", "5",
            "--count", "2000", "--code", "lt",
            "--manifest-interval", "16"])
        fetcher.join(timeout=30)
        assert codes == {"serve": 0, "fetch": 0}
        assert out.read_bytes() == data

    @pytest.mark.parametrize("field,damage", MANIFEST_DAMAGE)
    def test_fetch_rejects_a_damaged_manifest_by_name(self, tmp_path, capsys,
                                                      field, damage):
        """The first in-band manifest a fetch adopts, minus a key or
        with one mistyped: exit 2 naming the field, no traceback, no
        output file."""
        from repro.cli import main

        frame = pack_frame(FRAME_MANIFEST, json.dumps(
            damaged_manifest(field, damage)).encode("utf-8"))
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        noise = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        done = threading.Event()

        def spray():        # until the fetcher has bound and heard one
            while not done.wait(0.02):
                noise.sendto(frame, ("127.0.0.1", port))

        sprayer = threading.Thread(target=spray)
        sprayer.start()
        try:
            rc = main(["fetch", f"127.0.0.1:{port}",
                       str(tmp_path / "never.bin"), "--timeout", "5"])
        finally:
            done.set()
            sprayer.join(timeout=5)
            noise.close()
        assert rc == 2
        assert f"'{field}' must be" in capsys.readouterr().err
        assert not (tmp_path / "never.bin").exists()

    def test_fetch_times_out_cleanly(self, tmp_path):
        from repro.cli import main

        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        rc = main(["fetch", f"127.0.0.1:{port}",
                   str(tmp_path / "never.bin"), "--timeout", "0.2"])
        assert rc == 2
        assert not (tmp_path / "never.bin").exists()
