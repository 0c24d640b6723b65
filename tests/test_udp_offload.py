"""UDP offloads: a run of datagrams per system call, the same datagrams.

The sender hands each destination's run of equal-sized datagrams to one
``UDP_SEGMENT`` ``sendmsg``; the subscription turns on ``UDP_GRO`` and
reads such runs back as one buffer.  Neither may change what a peer
hears, so:

* every ``TestUdpServe`` oracle-parity case runs again here with the
  offload on and with it forced off (the probe monkeypatched).  Its
  ``ears`` have no GRO, so they hear the kernel-segmented datagrams, and
  both runs must equal ``oracle_udp_serve``;
* a coalesced buffer is taken apart into exactly the datagrams sent,
  one bad segment costing one malformed datagram;
* datagram sizes that change mid-serve, frames too wide to batch and a
  ``sendmsg`` the kernel refuses all leave the frame stream unchanged;
* a ``sendto`` the kernel refuses costs that one datagram, counted in
  ``socket_errors``, and the serve runs on;
* a subscription reports the kernel's receive-queue drops.

Every serve drawn from ``test_windowed_serve``'s sessions runs at both
of its packet widths (whole uint64 lanes and ragged).
"""

import errno
import json
import socket
import struct

import numpy as np
import pytest

import test_windowed_serve as windowed
from test_windowed_serve import _data, _udp_run, ears, width  # noqa: F401
from _oracles import oracle_udp_serve
from repro import api
from repro.errors import ProtocolError
from repro.net.transport import UdpSubscription, UdpTransport
from repro.net.transport import udp as udp_module
from repro.net.transport.base import (FRAME_DATA, FRAME_MANIFEST, iter_frames,
                                      pack_frame)


def _support():
    try:
        return udp_module.offload_support()
    except OSError:
        return {"UDP_SEGMENT": False, "UDP_GRO": False}


SUPPORT = _support()
needs_segment = pytest.mark.skipif(
    not SUPPORT["UDP_SEGMENT"], reason="kernel refuses UDP_SEGMENT")
needs_both = pytest.mark.skipif(
    not (SUPPORT["UDP_SEGMENT"] and SUPPORT["UDP_GRO"]),
    reason="kernel refuses UDP_SEGMENT or UDP_GRO")


class TestUdpServeOffload(windowed.TestUdpServe):
    """Every ``TestUdpServe`` case, offload on and forced off."""

    @pytest.fixture(autouse=True, params=["on", "off"])
    def offload(self, request, monkeypatch):
        if request.param == "off":
            monkeypatch.setattr(udp_module, "_segmentation_offload",
                                lambda sock: False)
        elif not SUPPORT["UDP_SEGMENT"]:
            pytest.skip("kernel refuses UDP_SEGMENT")
        return request.param


@pytest.fixture
def sendmsg_calls(monkeypatch):
    """Every ``socket.sendmsg`` call: the datagram lengths it carried and
    the error it raised (None when it went out)."""
    calls = []
    real = socket.socket.sendmsg

    def spy(sock, buffers, *rest):
        lengths = [len(buffer) for buffer in buffers]
        try:
            sent = real(sock, buffers, *rest)
        except OSError as exc:
            calls.append((lengths, exc))
            raise
        calls.append((lengths, None))
        return sent

    monkeypatch.setattr(socket.socket, "sendmsg", spy)
    return calls


@needs_segment
class TestSegmentedSend:
    def test_a_serve_batches_its_datagrams(self, width, ears, sendmsg_calls):
        got = _udp_run(UdpTransport.serve, windowed._session("lt"), ears,
                       count=300)
        assert got == _udp_run(oracle_udp_serve, windowed._session("lt"),
                               ears, count=300)
        assert sendmsg_calls and all(exc is None for _, exc in sendmsg_calls)
        assert max(len(lengths) for lengths, _ in sendmsg_calls) > 1

    @pytest.mark.parametrize("packet,single_block", [
        (721, True),      # 1,472-byte pairs, a lone frame after each drop
        (2000, False),    # wider than the budget: never batched
        (100, False),     # runs of 12, a short run at every window edge
    ])
    def test_mixed_sizes_in_one_serve(self, ears, monkeypatch,
                                      sendmsg_calls, packet, single_block):
        monkeypatch.setattr(udp_module, "SERVE_WINDOW", 100)

        def session():
            return api.SenderSession(
                _data(3, 40 * packet), code="lt", packet_size=packet,
                block_size=(64 if single_block else 16) * packet, seed=3)

        options = dict(loss=0.2, count=333)
        got = _udp_run(UdpTransport.serve, session(), ears, **options)
        assert got == _udp_run(oracle_udp_serve, session(), ears, **options)
        assert got[0]["socket_errors"] == 0
        assert all(exc is None for _, exc in sendmsg_calls)   # no EMSGSIZE
        if packet > udp_module.DATAGRAM_BUDGET:
            assert not sendmsg_calls
        else:
            # some batch closed on a shorter datagram than it began with
            assert any(lengths[-1] < lengths[0]
                       for lengths, _ in sendmsg_calls)
            assert all(sum(lengths) <= 65507 and len(lengths) <= 64
                       for lengths, _ in sendmsg_calls)

    def test_a_refused_sendmsg_falls_back_for_good(self, width, ears,
                                                   monkeypatch,
                                                   sendmsg_calls):
        """``EIO`` (a device without checksum offload) sends nothing: the
        batch goes a datagram at a time, and so does the rest."""
        refused = []
        spy = socket.socket.sendmsg

        def refuse_once(sock, *args):
            if not refused:
                refused.append(True)
                raise OSError(errno.EIO, "checksum offload unavailable")
            return spy(sock, *args)

        monkeypatch.setattr(socket.socket, "sendmsg", refuse_once)
        got = _udp_run(UdpTransport.serve, windowed._session("lt"), ears,
                       count=333)
        assert refused and not sendmsg_calls
        assert got == _udp_run(oracle_udp_serve, windowed._session("lt"),
                               ears, count=333)


@pytest.mark.skipif(not windowed._udp_available(),
                    reason="UDP loopback sockets unavailable")
def test_a_refused_sendto_is_counted_and_survived(width, ears, monkeypatch):
    """``ENOBUFS`` on one data datagram: the serve counts it in
    ``socket_errors``, runs on to its count, and every other frame
    reaches the ear.  (The offload is off, so every datagram is a
    ``sendto``.)"""
    monkeypatch.setattr(udp_module, "_segmentation_offload",
                        lambda sock: False)
    refused, data_sends = [], []
    real = socket.socket.sendto

    def refuse_third(sock, datagram, *rest):
        if datagram[0] == FRAME_DATA:
            data_sends.append(None)
            if len(data_sends) == 3:
                refused.append(bytes(datagram))
                raise OSError(errno.ENOBUFS, "no buffer space available")
        return real(sock, datagram, *rest)

    monkeypatch.setattr(socket.socket, "sendto", refuse_third)
    counters, heard = _udp_run(UdpTransport.serve, windowed._session("lt"),
                               ears, count=333)
    want_counters, want = _udp_run(oracle_udp_serve,
                                   windowed._session("lt"), ears, count=333)
    lost = list(iter_frames(refused[0]))
    assert counters["emitted"] == 333
    assert counters == {**want_counters, "socket_errors": 1}
    assert lost and heard[0] == [frame for frame in want[0]
                                 if frame not in lost]


# -- the receiving end ---------------------------------------------------------

#: a manifest for 20-byte records (12-byte header + 8): 23-byte frames.
_MANIFEST = {"kind": "transfer", "code": "lt", "seed": 0, "file_size": 8,
             "packet_size": 8, "block_packets": 1}
_FRAME = 3 + 20


def _coalesced(sub, segments):
    """Send ``segments`` (equal-sized) to ``sub`` in one segmentation-
    offload send, after the manifest; the buffers ``sub`` receives are
    logged as ``(length, gso)``."""
    heard = []
    receive = sub._recv

    def logged():
        got = receive()
        if got is not None:
            heard.append((len(got[0]), got[2]))
        return got

    sub._recv = logged
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as tx:
        tx.sendto(pack_frame(FRAME_MANIFEST, json.dumps(_MANIFEST).encode(
            "utf-8")), sub.address)
        tx.sendmsg(segments, [(socket.IPPROTO_UDP, udp_module._UDP_SEGMENT,
                               struct.pack("=H", len(segments[0])))],
                   0, sub.address)
    assert sub.manifest() == _MANIFEST
    return heard


def _records(count):
    return [bytes([i]) * 20 for i in range(count)]


def _drain(sub):
    """Every record ``sub`` hears until its silence timeout."""
    got = []
    try:
        for batch in sub.record_batches():
            got += [bytes(record) for record in batch]
    except ProtocolError:
        pass                                # silence: the queue is empty
    return got


@needs_both
class TestCoalescedReceive:
    def test_a_clean_run_enters_the_one_pass_parse_whole(self):
        records = _records(9)
        with UdpSubscription("127.0.0.1:0", timeout=2.0) as sub:
            heard = _coalesced(sub, [pack_frame(FRAME_DATA, record)
                                     for record in records])
            batch = next(sub.record_batches())
            assert (9 * _FRAME, _FRAME) in heard
            assert isinstance(batch, np.ndarray)
            assert [row.tobytes() for row in batch] == records
            assert sub.datagrams == 1 + 9 and sub.malformed == 0

    def test_a_manifest_tail_leaves_the_runs_in_the_one_pass_parse(self):
        """A buffer that is not one run is taken apart: its run segments
        still join the drain's one-pass parse, the shorter manifest
        after them is parsed alone."""
        records = _records(12)
        runs = [b"".join(pack_frame(FRAME_DATA, record)
                         for record in records[at:at + 4])
                for at in range(0, 12, 4)]
        tail = pack_frame(FRAME_MANIFEST, json.dumps(
            _MANIFEST, separators=(",", ":")).encode("utf-8"))
        assert len(tail) < len(runs[0])
        with UdpSubscription("127.0.0.1:0", timeout=2.0) as sub:
            heard = _coalesced(sub, runs + [tail])
            batch = next(sub.record_batches())
            assert (3 * 4 * _FRAME + len(tail), 4 * _FRAME) in heard
            assert isinstance(batch, np.ndarray)
            assert [row.tobytes() for row in batch] == records
            assert sub.datagrams == 1 + 4 and sub.malformed == 0

    @pytest.mark.parametrize("bad", [0, 4, 8])
    def test_a_bad_segment_is_one_malformed_datagram(self, bad):
        """One segment's frame type says manifest (its body is no JSON):
        that datagram is malformed, every other record arrives, in
        order."""
        records = _records(9)
        segments = [pack_frame(FRAME_DATA, record) for record in records]
        segments[bad] = pack_frame(FRAME_MANIFEST, b"\xff" * 20)
        with UdpSubscription("127.0.0.1:0", timeout=0.3) as sub:
            heard = _coalesced(sub, segments)
            got = _drain(sub)
            assert (9 * _FRAME, _FRAME) in heard
            assert sub.datagrams == 1 + 9
            assert sub.malformed == 1
            assert got == records[:bad] + records[bad + 1:]

    def test_a_truncated_buffer_is_counted_malformed(self, monkeypatch):
        with UdpSubscription("127.0.0.1:0", timeout=0.3) as sub:
            monkeypatch.setattr(udp_module, "_RECV_BYTES", 10)
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as tx:
                tx.sendto(pack_frame(FRAME_DATA, bytes(20)), sub.address)
            with pytest.raises(ProtocolError, match="no datagrams"):
                next(sub.record_batches())
            assert sub.datagrams == sub.malformed == 1


def test_offload_support_names_both_offloads():
    assert set(SUPPORT) == {"UDP_SEGMENT", "UDP_GRO"}
    assert all(isinstance(flag, bool) for flag in SUPPORT.values())


@pytest.mark.skipif(not windowed._udp_available(),
                    reason="UDP loopback sockets unavailable")
def test_kernel_drops_are_what_never_arrived():
    """Flood a subscription whose receive buffer holds a few datagrams:
    the drops the kernel reports are the datagrams sent and never
    heard.  (The count rides on the next datagram queued, so one more
    follows the flood once the queue is empty.)"""
    sent = 300
    frame = pack_frame(FRAME_DATA, bytes(200))
    with UdpSubscription("127.0.0.1:0", timeout=0.3, buffer_size=1) as sub, \
            socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as tx:
        for _ in range(sent):
            tx.sendto(frame, sub.address)
        _drain(sub)
        tx.sendto(frame, sub.address)
        sent += 1
        assert len(_drain(sub)) == 1
        if not sub.kernel_drops:
            pytest.skip("socket does not report receive-queue drops")
        assert sub.kernel_drops == sent - sub.datagrams > 0
        assert f"kernel_drops={sub.kernel_drops}" in repr(sub)
