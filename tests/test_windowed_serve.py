"""The windowed send path emits exactly what the per-packet one did.

Three layers, all held to per-packet oracles at a packet width of whole
uint64 lanes and at a ragged one (the XOR kernels' lane view and their
byte route):

* the **look-ahead** behind ``packets()`` — the server stamps
  :data:`~repro.transfer.server.LOOKAHEAD` emissions per record window —
  against ``droplet_payload`` / ``encoding[index]`` one packet at a
  time, and against the draws it hands its held rows back to;
* the **whole windows** of ``MemoryTransport.serve`` and
  ``FileTransport.serve`` (ids-only windows, then only the survivors
  stamped) — the stop found inside a window, the tail taken back from
  the source and the loss channels — against the per-packet serve
  loops kept in :mod:`tests._oracles`: same ``ServeReport`` counters,
  same subscriber record bytes, same ``stream.pkt`` and
  ``manifest.json`` bytes, and neither serve synthesises a row no
  subscriber receives;
* the **windowed UDP serve** (``TransferServer.record_window`` framed
  in one buffer, a thin per-emission row loop, consecutive frames
  sharing a datagram up to ``DATAGRAM_BUDGET``) against
  ``oracle_udp_serve``: the same frames on loopback, in order, and no
  id skipped when a stop lands mid-window — and the rule for which
  frames share a datagram pinned on its own.
"""

from __future__ import annotations

import dataclasses
import socket
import sys
import tracemalloc
from itertools import islice
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    make_source,
    oracle_file_serve,
    oracle_memory_serve,
    oracle_udp_serve,
    single_block_server,
)
from repro import api
from repro.codes.registry import block_seed
from repro.codes.tornado.code import _TornadoBlockEncoder
from repro.errors import ParameterError, ProtocolError, ReproError
from repro.fountain.packets import SERIAL_MODULUS, record_ids
from repro.net.channel import LossyChannel
from repro.net.loss import BernoulliLoss, GilbertElliottLoss
from repro.net.transport import FileTransport, MemoryTransport, UdpTransport
from repro.net.transport import file as file_module
from repro.net.transport import memory as memory_module
from repro.net.transport import udp as udp_module
from repro.net.transport.base import (
    DATAGRAM_BUDGET,
    FRAME_DATA,
    FRAME_MANIFEST,
    SERVE_WINDOW,
    iter_frames,
)
from repro.net.transport.pacing import TokenBucket
from repro.net.transport.udp import UdpSubscription
from repro.protocol.adaptive import AdaptivePolicy, PolicyDecision
from repro.transfer import server as server_module
from repro.transfer.client import TransferClient
from repro.transfer.schedule import carousel_order
from repro.transfer.server import LOOKAHEAD

CODES = ["lt", "raptor", "tornado-b", "rs", "interleaved"]

#: three blocks of 60/60/37 packets: uneven, so the stripe and the
#: deficit sums are not symmetric.  A test that asks for ``width`` runs
#: at each of :data:`WIDTHS` with the same packet counts.
PACKET = 32
BLOCK = 60 * PACKET
OBJECT = 157 * PACKET

#: whole uint64 lanes (the XOR kernels' lane view) and a ragged width
#: (their byte route).
WIDTHS = {"lanes": 32, "ragged": 36}


@pytest.fixture(params=sorted(WIDTHS))
def width(request, monkeypatch):
    packet = WIDTHS[request.param]
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "PACKET", packet)
    monkeypatch.setattr(module, "BLOCK", 60 * packet)
    monkeypatch.setattr(module, "OBJECT", 157 * packet)
    return packet


def _data(seed: int, size: Optional[int] = None) -> bytes:
    return np.random.default_rng(seed).integers(
        0, 256, size=OBJECT if size is None else size,
        dtype=np.uint8).tobytes()


def _session(code: str, seed: int = 3, size: Optional[int] = None):
    return api.SenderSession(_data(seed, size), code=code, packet_size=PACKET,
                             block_size=BLOCK, seed=seed)


def _counters(report) -> dict:
    fields = dataclasses.asdict(report)
    del fields["duration"]
    fields["dropped"] = report.dropped
    return fields


# -- look-ahead behind packets() -----------------------------------------------


def _rateless(k=24, spec="lt", seed=5):
    source = make_source(k, PACKET, seed)
    server = single_block_server(spec, source, seed)
    return server, server.codec.code_for(0).encoder(source)


def _carousel(k=24, spec="tornado-b", seed=5):
    source = make_source(k, PACKET, seed)
    server = single_block_server(spec, source, seed)
    return server, server.codec.code_for(0).encode(source)


class TestLookahead:
    @pytest.mark.parametrize("spec", ["lt", "raptor"])
    def test_rateless_packets_match_per_droplet_oracle(self, width, spec):
        server, encoder = _rateless(spec=spec)
        packets = list(server.packets(3 * LOOKAHEAD + 5))
        for serial, packet in enumerate(packets):
            assert packet.index == serial
            assert packet.serial == serial
            assert packet.block == 0
            assert (packet.payload.tobytes()
                    == encoder.droplet_payload(serial).tobytes())

    @pytest.mark.parametrize("spec", ["tornado-b", "rs", "interleaved"])
    @pytest.mark.parametrize("route", ["packets", "records", "draw_ids"])
    def test_carousel_packets_match_row_oracle(self, width, spec, route):
        """Every draw route reads the same carousel: per-packet pulls (a
        window of :data:`LOOKAHEAD` at a time), one record window, and
        one ``draw_ids()`` draw stamped later, each wrapping the cycle
        inside a draw."""
        server, encoding = _carousel(spec=spec)
        n = len(encoding)
        order = carousel_order(n, block_seed(5, 0))
        count = 2 * n + 3                           # wraps the cycle twice
        if route == "packets":
            packets = list(server.packets(count))
            got = [(p.index, p.payload.tobytes()) for p in packets]
            assert all(type(p.index) is int for p in packets)
        elif route == "records":
            header = server.codec.header_size
            records = server.record_window(count)
            blocks, ids, serials = record_ids(records, header)
            assert not blocks.any()
            assert serials.tolist() == list(range(count))
            got = [(int(i), row[header:].tobytes())
                   for i, row in zip(ids, records)]
        else:
            blocks, ids, serials = server.draw_ids(count)
            assert not blocks.any()
            payloads = server.records(blocks, ids, serials)[
                :, server.codec.header_size:]
            got = [(int(i), row.tobytes()) for i, row in zip(ids, payloads)]
        assert len(got) == count
        for slot, (index, payload) in enumerate(got):
            assert index == int(order[slot % n])
            assert payload == encoding[index].tobytes()

    def test_a_carousel_cursor_has_no_id_ceiling(self, width):
        """Only droplet ids are bounded by the uint32 header field: a
        carousel block past ``2**32`` emissions keeps cycling its
        permutation, and its serials wrap."""
        server, encoding = _carousel()
        n = len(encoding)
        order = carousel_order(n, block_seed(5, 0))
        first = SERIAL_MODULUS + 5
        server._cursors[0] = first
        packets = list(server.packets(LOOKAHEAD + n))
        for t, packet in enumerate(packets, start=first):
            assert packet.index == int(order[t % n])
            assert packet.serial == t % SERIAL_MODULUS
            assert (packet.payload.tobytes()
                    == encoding[packet.index].tobytes())

    def test_id_ceiling_raises_on_the_same_emission(self, width):
        server, encoder = _rateless()
        first = SERIAL_MODULUS - LOOKAHEAD - 3
        server._cursors[0] = first
        stream = server.packets()
        got = []
        with pytest.raises(ProtocolError, match="droplet ids exhausted"):
            for packet in islice(stream, LOOKAHEAD + 4):
                got.append(packet)
        assert [p.index for p in got] == list(range(first, SERIAL_MODULUS))
        assert (got[-1].payload.tobytes()
                == encoder.droplet_payload(got[-1].index).tobytes())

    def test_a_draw_starts_at_the_last_emitted_packet(self, width):
        server, _ = _rateless()
        stream = server.packets()
        for _ in range(3):
            next(stream)
        # a whole LOOKAHEAD has been synthesised; three were emitted
        assert len(server._held) == LOOKAHEAD
        assert server.draw_ids(2)[1].tolist() == [3, 4]
        carousel, encoding = _carousel()
        order = carousel_order(len(encoding), block_seed(5, 0))
        next(carousel.packets())
        assert carousel.draw_ids(2)[1].tolist() == order[1:3].tolist()

    def test_reset_drops_the_window_and_restarts(self, width):
        for server in (_rateless()[0], _carousel()[0]):
            first = [p.to_bytes() for p in server.packets(5)]
            assert len(server._held) == LOOKAHEAD
            server.reset()
            assert not server._held
            assert [p.to_bytes() for p in server.packets(5)] == first

    @pytest.mark.parametrize("make", [_rateless, _carousel])
    def test_window_interleaves_with_packets(self, width, make):
        """A draw hands the held window's unpulled rows back first: the
        ids and payloads it draws, and the packets after it, are the
        straight stream's."""
        server, _ = make()
        straight, _ = make()
        want = list(straight.packets(3 * LOOKAHEAD))
        got_ids, got_payloads = [], []
        stream = server.packets()
        cuts = [3, 0, LOOKAHEAD - 1, 1, LOOKAHEAD + 7, 2]
        for turn, count in enumerate(cuts):
            if turn % 2:
                blocks, ids, serials = server.draw_ids(count)
                payloads = server.records(blocks, ids, serials)[
                    :, server.codec.header_size:]
                got_ids += ids.tolist()
                got_payloads += [row.tobytes() for row in payloads]
            else:
                for packet in islice(stream, count):
                    got_ids.append(packet.index)
                    got_payloads.append(packet.payload.tobytes())
        assert got_ids == [p.index for p in want[:len(got_ids)]]
        assert got_payloads == [p.payload.tobytes()
                                for p in want[:len(got_ids)]]

    @pytest.mark.parametrize("code", ["lt", "tornado-b"])
    def test_reweight_mid_stream_only_moves_the_slot_cursor(self, width, code):
        weights = [0.2, 3.0, 1.0]
        live = _session(code).source
        head = [p.to_bytes() for p in live.packets(50)]
        live.reweight(weights)
        tail = list(live.packets(120))
        # The oracle: per-block streams are untouched by the reweight, so
        # block b's j-th packet after it carries the (emitted_b + j)-th
        # index of block b's cursor — whatever was drawn ahead — and
        # that index's droplet_payload / encoding row.
        codec, data = live.codec, live._data
        emitted = [0, 0, 0]
        for record in head:
            emitted[int.from_bytes(record[12:16], "big")] += 1
        rows, cursors = [], []
        for b in range(codec.num_blocks):
            block_code = codec.code_for(b)
            block_source = codec.source_block(data, b)
            rows.append(block_code.encoder(block_source).droplet_payload
                        if codec.is_rateless
                        else block_code.encode(block_source).__getitem__)
            cursors.append(np.arange(200) if codec.is_rateless else np.resize(
                carousel_order(block_code.n, block_seed(live.seed, b)), 200))
        for packet in tail:
            index = int(cursors[packet.block][emitted[packet.block]])
            emitted[packet.block] += 1
            assert packet.index == index
            assert packet.payload.tobytes() == rows[packet.block](
                index).tobytes()
        counts = np.bincount([p.block for p in tail], minlength=3)
        assert counts[1] > counts[0]        # the weights took effect

    def test_per_packet_pulls_stamp_at_the_one_site(self, monkeypatch):
        """``packets()`` hands out rows of the transfer server's record
        windows: one ``stamp_headers`` pass per :data:`LOOKAHEAD`
        packets, synthesised by the droplet stack — no per-block
        encoder, no one-row stamp."""
        from repro.codes.lt.encoder import LTEncoder
        from repro.transfer import server as server_module

        stamps, synthesised = [], []
        stamp_headers = server_module.stamp_headers
        payload_block = LTEncoder.payload_block

        def counting_stamp(records, *args):
            stamps.append(len(records))
            return stamp_headers(records, *args)

        def counting_payload_block(encoder, ids):
            synthesised.append(len(ids))
            return payload_block(encoder, ids)

        monkeypatch.setattr(server_module, "stamp_headers", counting_stamp)
        monkeypatch.setattr(LTEncoder, "payload_block",
                            counting_payload_block)
        options = dict(code="lt", packet_size=PACKET, block_size=BLOCK,
                       seed=3)
        data = _data(3, 5 * BLOCK)
        session = api.SenderSession(data, **options)
        assert session.num_blocks == 5
        packets = [p.to_bytes() for p in session.packets(3 * LOOKAHEAD)]
        assert stamps == [LOOKAHEAD] * 3
        assert synthesised == []
        twin = api.SenderSession(data, **options).source
        assert packets == [row.tobytes()
                           for row in twin.record_window(3 * LOOKAHEAD)]

    def test_forks_are_independent_streams(self, width):
        server = _session("lt").source
        want = [p.to_bytes() for p in _session("lt").source.packets(90)]
        fork = server.fork()
        ours, theirs = server.packets(), fork.packets()
        got_ours, got_theirs = [], []
        for take_ours, take_theirs in [(7, 40), (50, 1), (33, 49)]:
            got_ours += [p.to_bytes() for p in islice(ours, take_ours)]
            got_theirs += [p.to_bytes() for p in islice(theirs, take_theirs)]
        assert got_ours == want
        assert got_theirs == want


# -- the channel's verdict stream ----------------------------------------------


class TestVerdictStream:
    @pytest.mark.parametrize("model", [
        BernoulliLoss(0.3),
        BernoulliLoss(0.0),
        GilbertElliottLoss.from_loss_and_burst(0.2, 6.0),
    ], ids=repr)
    def test_any_partition_draws_the_same_mask(self, model):
        """... and so does any draw whose tail is unwound: a draw of
        ``n`` less ``m`` taken back is a draw of ``n - m``."""
        total = 3 * LossyChannel._CHUNK + 17
        straight = LossyChannel(model, rng=11)
        whole = straight.delivery_mask(total)
        rng = np.random.default_rng(0)
        channel = LossyChannel(model, rng=11)
        parts = []
        while sum(map(len, parts)) < total:
            left = total - sum(map(len, parts))
            turn = rng.random()
            if turn < 0.3:
                parts.append([not channel.lost()])
            elif turn < 0.6:
                parts.append(channel.delivery_mask(
                    min(left, int(rng.integers(0, 700)))))
            else:
                drawn = int(rng.integers(0, 1500))
                mask = channel.delivery_mask(drawn)
                back = max(drawn - left, int(rng.integers(0, drawn + 1)))
                channel.unwind(back)
                parts.append(mask[:drawn - back])
        assert np.concatenate(parts).tolist() == whole.tolist()
        assert channel.sent == straight.sent == total
        assert channel.delivered == straight.delivered == int(whole.sum())
        assert channel.observed_loss_rate == straight.observed_loss_rate
        # and the stream after the partition is the straight stream's
        assert (channel.delivery_mask(700).tolist()
                == straight.delivery_mask(700).tolist())

    @pytest.mark.parametrize("model", [
        BernoulliLoss(0.3),
        GilbertElliottLoss.from_loss_and_burst(0.2, 6.0),
    ], ids=repr)
    def test_unwinding_past_the_buffer_raises_and_moves_nothing(self, model):
        straight = LossyChannel(model, rng=4)
        want = straight.delivery_mask(3000)
        channel = LossyChannel(model, rng=4)
        got = channel.delivery_mask(600).tolist()
        with pytest.raises(ParameterError):
            channel.unwind(601)
        with pytest.raises(ParameterError):
            channel.unwind(-1)
        assert channel.sent == 600
        channel.unwind(200)
        channel.unwind(100)         # unwinds add up
        got = got[:300]
        # a draw that refills keeps only itself: all of it can go back,
        # nothing before it
        got += channel.delivery_mask(1400).tolist()
        channel.unwind(1400)
        with pytest.raises(ParameterError):
            channel.unwind(1)
        got = got[:300]
        got += channel.delivery_mask(2700).tolist()
        assert got == want.tolist()
        assert (channel.sent, channel.delivered) == (3000, int(want.sum()))

    def test_bernoulli_stream_is_the_seeds_uniform_stream(self):
        """The verdicts every earlier release drew for this seed: one
        uniform per slot, in slot order, however the slots are asked for."""
        want = np.random.default_rng(42).random(2000) >= 0.25
        channel = LossyChannel(BernoulliLoss(0.25), rng=42)
        got = [not channel.lost() for _ in range(700)]
        got += channel.delivery_mask(1300).tolist()
        assert got == want.tolist()

    def test_transmit_keeps_gilbert_elliott_bursts(self):
        """``transmit`` used to ask the model for one slot at a time,
        re-drawing the hidden state from stationarity each packet: a
        memoryless channel with mean burst 1 / (1 - 0.2) = 1.25."""
        model = GilbertElliottLoss.from_loss_and_burst(0.2, 8.0)
        channel = LossyChannel(model, rng=3)
        survived = set(channel.transmit(range(60_000)))
        lost = np.array([slot not in survived for slot in range(60_000)])
        edges = np.diff(np.concatenate([[0], lost.astype(int), [0]]))
        bursts = np.nonzero(edges == -1)[0] - np.nonzero(edges == 1)[0]
        assert abs(bursts.mean() - 8.0) < 0.8
        assert abs(lost.mean() - 0.2) < 0.03


# -- the hoisted deficit loop --------------------------------------------------


class TestReceiveWindow:
    @pytest.mark.parametrize("code", CODES)
    def test_matches_sequential_receive_index(self, width, code):
        session = _session(code)
        arrivals = [(p.block, p.index) for p in session.packets(400)
                    if p.serial % 5]
        blocks, indices = map(np.array, zip(*arrivals))
        scalar = TransferClient(session.codec, payload_size=None)
        used = next(n for n, (b, i) in enumerate(arrivals, 1)
                    if scalar.receive_index(int(b), int(i)))
        windowed = TransferClient(session.codec, payload_size=None)
        fed = 0
        for cut in (1, 50, 51, 170, len(arrivals)):
            fed += windowed.receive_window(blocks[fed:cut], indices[fed:cut])
        assert windowed.is_complete
        assert fed == used
        assert windowed.total_received == scalar.total_received
        assert windowed.stats() == scalar.stats()
        assert windowed.min_additional == 0

    @pytest.mark.parametrize("code", ["tornado-b", "rs", "lt"])
    def test_decoded_blocks_cost_no_receive_many_call(self, width, code,
                                                      monkeypatch):
        """A block that has decoded is counted in one step per chunk:
        ``receive_many`` sees only blocks still decoding, and the
        counters are the per-packet loop's.  A block id the plan does
        not have raises before anything is taken."""
        session = _session(code)
        arrivals = [(p.block, p.index) for p in session.packets(600)
                    if p.serial % 4]
        blocks, indices = map(np.array, zip(*arrivals))
        scalar = TransferClient(session.codec, payload_size=None)
        used = next(n for n, (b, i) in enumerate(arrivals, 1)
                    if scalar.receive_index(int(b), int(i)))
        late = []
        receive_many = TransferClient.receive_many
        monkeypatch.setattr(
            TransferClient, "receive_many",
            lambda self, block, *rest: late.append(
                block not in self._incomplete)
            or receive_many(self, block, *rest))
        windowed = TransferClient(session.codec, payload_size=None)
        assert windowed.receive_window(blocks, indices) == used
        assert late and not any(late)
        assert windowed.total_received == scalar.total_received
        assert windowed.stats() == scalar.stats()
        fresh = TransferClient(session.codec, payload_size=None)
        with pytest.raises(ProtocolError, match="names block 3"):
            fresh.receive_window(np.array([0, 3]), np.array([0, 0]))
        assert fresh.total_received == 0


# -- windowed serves vs the per-packet oracles ---------------------------------


def _memory_run(serve, code, *, loss=0.2, loss_seed=5, subscribers=1,
                **options):
    session = _session(code)
    transport = MemoryTransport(loss=loss, seed=loss_seed)
    subs = [transport.subscribe() for _ in range(subscribers)]
    report = serve(transport, session, **options)
    return _counters(report), [list(sub.records()) for sub in subs]


def _file_run(serve, directory, code, *, loss=0.1, loss_seed=5, **options):
    transport = FileTransport(directory, loss=loss, seed=loss_seed)
    report = serve(transport, _session(code), **options)
    return (_counters(report), (directory / "stream.pkt").read_bytes(),
            (directory / "manifest.json").read_bytes())


class TestMemoryServe:
    @pytest.mark.parametrize("code", CODES)
    @pytest.mark.parametrize("options", [
        {},
        {"extra": 9},
        {"subscribers": 3},
        {"subscribers": 3, "extra": 2, "loss": 0.35},
        {"count": 150},
        {"count": 400, "subscribers": 2},
        {"loss": 0.0},
    ], ids=str)
    def test_identical_to_per_packet_loop(self, width, code, options):
        got = _memory_run(MemoryTransport.serve, code, **options)
        want = _memory_run(oracle_memory_serve, code, **options)
        assert got[0] == want[0]
        assert got[1] == want[1]

    @pytest.mark.parametrize("code", ["lt", "raptor", "tornado-b"])
    @pytest.mark.parametrize("options", [
        {"report_every": 16, "subscribers": 2},
        {"report_every": 7, "extra": 5},
        {"report_every": 1, "count": 90},
        {"report_every": 50, "count": 300, "subscribers": 3},
    ], ids=str)
    def test_same_reports_at_the_same_emissions(self, width, code, options):
        def run(serve):
            seen = []
            session = _session(code)
            transport = MemoryTransport(loss=0.25, seed=8)
            subs = [transport.subscribe()
                    for _ in range(options.get("subscribers", 1))]

            def tap(report):
                seen.append((subs[0].channel.sent, report.encode()))

            kwargs = {k: v for k, v in options.items() if k != "subscribers"}
            report = serve(transport, session, feedback=tap,
                           policy=AdaptivePolicy(), **kwargs)
            return (_counters(report), seen,
                    [list(sub.records()) for sub in subs])

        got, want = run(MemoryTransport.serve), run(oracle_memory_serve)
        assert got[1], "the policy must have seen reports"
        assert got == want

    def test_too_lossy_raises_after_the_same_limit(self, width):
        def run(serve):
            session = _session("rs", size=4 * PACKET)
            transport = MemoryTransport(loss=0.9999, seed=2)
            sub = transport.subscribe()
            with pytest.raises(ReproError, match="channel too lossy") as err:
                serve(transport, session)
            return str(err.value), sub.channel.sent, list(sub.records())

        got, want = run(MemoryTransport.serve), run(oracle_memory_serve)
        assert got == want
        assert got[1] == 200 * 4

    def test_too_lossy_still_delivers_what_went_out(self, width):
        """The survivors are stamped before the raise: what went out
        before the limit is in the subscriber's buffer, as it is after
        a packet-at-a-time serve."""
        def run(serve):
            session = _session("rs", size=4 * PACKET)
            transport = MemoryTransport(loss=0.997, seed=2)
            sub = transport.subscribe()
            with pytest.raises(ReproError, match="channel too lossy"):
                serve(transport, session)
            return list(sub.records())

        got = run(MemoryTransport.serve)
        assert got and got == run(oracle_memory_serve)

    @pytest.mark.parametrize("code", ["lt", "raptor", "tornado-b"])
    @pytest.mark.parametrize("subscribers", [1, 3])
    @pytest.mark.parametrize("adaptive", [False, True],
                             ids=["open", "policy"])
    def test_only_the_received_rows_are_synthesised(
            self, width, monkeypatch, code, subscribers, adaptive):
        """Every payload row the serve synthesises is a row at least one
        subscriber receives: none every channel dropped, none past the
        stop, none twice."""
        rows = []
        synthesise = server_module._DropletStack.synthesise
        monkeypatch.setattr(
            server_module._DropletStack, "synthesise",
            lambda self, blocks, *rest: rows.append(len(blocks))
            or synthesise(self, blocks, *rest))
        getitem = _TornadoBlockEncoder.__getitem__
        monkeypatch.setattr(
            _TornadoBlockEncoder, "__getitem__",
            lambda self, index: rows.append(
                np.arange(len(self))[index].size) or getitem(self, index))
        session = _session(code)
        transport = MemoryTransport(loss=0.2, seed=5)
        subs = [transport.subscribe() for _ in range(subscribers)]
        options = ({"policy": AdaptivePolicy(), "report_every": 16}
                   if adaptive else {})
        report = transport.serve(session, extra=4, **options)
        header = session.codec.header_size
        received = set()
        for sub in subs:
            for batch in sub.record_batches():
                received.update(record_ids(batch, header)[2].tolist())
        assert len(received) < report.emitted
        assert sum(rows) == len(received)

    def test_an_rs_serve_computes_its_rows_without_held_tables(self):
        """1 MiB of ``rs`` in 128 KiB blocks: the survivors' redundancy
        rows are computed in one product whose tables are the kernel's
        scratch, not eight blocks' worth of held ones."""
        data = np.random.default_rng(1).integers(
            0, 256, size=1 << 20, dtype=np.uint8).tobytes()
        session = api.SenderSession(data, code="rs", packet_size=1024,
                                    block_size=128 << 10, seed=3)
        transport = MemoryTransport(loss=0.1, seed=5)
        sub = transport.subscribe()
        tracemalloc.start()
        try:
            report = transport.serve(session)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12 << 20
        assert sub.available == report.delivered
        encoders = session.source._payloads
        assert len(encoders) == 8
        assert all(encoder._tables is None for encoder in encoders)

    def test_a_lone_subscriber_is_handed_the_records_not_a_copy(self):
        """1 MiB of ``rs`` to one subscriber on a clean channel, where
        the stamped records are most of what a warm serve holds (the
        first serve also allocates the kernel's scratch tables): every
        row is heard, so the subscriber is handed the record matrix
        itself and the peak holds the records once, not twice."""
        data = np.random.default_rng(1).integers(
            0, 256, size=1 << 20, dtype=np.uint8).tobytes()

        def rs_session():
            return api.SenderSession(data, code="rs", packet_size=1024,
                                     block_size=128 << 10, seed=3)

        warm = MemoryTransport(loss=0.0, seed=5)
        warm.subscribe()
        warm.serve(rs_session())
        transport = MemoryTransport(loss=0.0, seed=5)
        sub = transport.subscribe()
        session = rs_session()
        tracemalloc.start()
        try:
            report = transport.serve(session)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = sum(matrix.nbytes for matrix in sub._matrices)
        assert sub.available == report.delivered == report.emitted
        assert peak < 2 * held

    @pytest.mark.parametrize("code", CODES)
    @pytest.mark.parametrize("kind", ["memory", "file"])
    def test_windows_are_capped(self, width, tmp_path, code, kind):
        """Whole SERVE_WINDOW draws of the ids-only pass, at most one
        more than the emissions fill, and the unsent tail goes back to
        every channel."""
        session = _session(code, size=(SERVE_WINDOW + 300) * PACKET)
        source = session.source
        draw, sizes = source.draw_ids, []
        source.draw_ids = lambda n: sizes.append(n) or draw(n)
        if kind == "memory":
            transport = MemoryTransport(loss=0.2, seed=1)
            channels = [transport.subscribe().channel for _ in range(2)]
        else:
            transport = FileTransport(tmp_path, loss=0.2, seed=1)
        report = transport.serve(session, extra=3)
        assert len(sizes) <= -(-report.emitted // SERVE_WINDOW) + 1
        assert set(sizes[:-1]) == {SERVE_WINDOW}
        if kind == "memory":
            assert [c.sent for c in channels] == [report.emitted] * 2
            assert sum(c.delivered for c in channels) == report.delivered
        else:
            assert report.emitted - report.dropped == report.delivered

    @pytest.mark.parametrize("code", ["lt", "tornado-b"])
    @pytest.mark.parametrize("window", [1, 7, 64])
    def test_any_window_size(self, width, monkeypatch, code, window):
        """The stop and its extras land anywhere in a window, or past it."""
        options = dict(subscribers=3, extra=9)
        want = _memory_run(oracle_memory_serve, code, **options)
        monkeypatch.setattr(memory_module, "SERVE_WINDOW", window)
        assert _memory_run(MemoryTransport.serve, code, **options) == want

    def test_feedback_queue_is_fifo(self):
        transport = MemoryTransport(seed=0)
        sub = transport.subscribe()
        sent = [api.FeedbackReport(receiver_id=i, loss=0.0, progress=0.0,
                                   packets_used=i, blocks_total=1)
                for i in range(5)]
        for report in sent:
            assert sub.send_feedback(report)
        assert [r.receiver_id for r in transport.drain_feedback()] \
            == [0, 1, 2, 3, 4]
        assert not transport.feedback_queue

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), loss=st.floats(0.0, 0.6),
           extra=st.integers(0, 12), code=st.sampled_from(CODES))
    def test_property_identical(self, seed, loss, extra, code):
        options = dict(loss=loss, loss_seed=seed, extra=extra)
        assert (_memory_run(MemoryTransport.serve, code, **options)
                == _memory_run(oracle_memory_serve, code, **options))


class TestFileServe:
    @pytest.mark.parametrize("code", CODES)
    @pytest.mark.parametrize("options", [
        {},
        {"extra": 9},
        {"extra": 3, "loss": 0.4},
        {"count": 150},
        {"loss": 0.0},
    ], ids=str)
    def test_identical_to_per_packet_loop(self, width, tmp_path, code,
                                          options):
        got = _file_run(FileTransport.serve, tmp_path / "got", code,
                        **options)
        want = _file_run(oracle_file_serve, tmp_path / "want", code,
                         **options)
        assert got == want

    def test_too_lossy_raises_after_the_same_limit(self, width, tmp_path):
        def run(serve, directory):
            session = _session("rs", size=4 * PACKET)
            transport = FileTransport(directory, loss=0.9999, seed=2)
            with pytest.raises(ReproError, match="channel too lossy") as err:
                serve(transport, session)
            return (str(err.value), (directory / "stream.pkt").read_bytes(),
                    (directory / "manifest.json").exists())

        got = run(FileTransport.serve, tmp_path / "got")
        assert got == run(oracle_file_serve, tmp_path / "want")
        assert got[2] is False

    @pytest.mark.parametrize("code", ["lt", "tornado-b"])
    @pytest.mark.parametrize("window", [1, 7, 64])
    def test_any_window_size(self, width, tmp_path, monkeypatch, code,
                             window):
        want = _file_run(oracle_file_serve, tmp_path / "want", code, extra=9)
        monkeypatch.setattr(file_module, "SERVE_WINDOW", window)
        assert _file_run(FileTransport.serve, tmp_path / "got", code,
                         extra=9) == want

    @pytest.mark.parametrize("code", ["lt", "raptor", "tornado-b"])
    @pytest.mark.parametrize("options", [
        {"extra": 9},
        {"extra": 3, "loss": 0.4},
        {"count": 150},
    ], ids=str)
    def test_only_the_survivors_are_synthesised(self, width, tmp_path,
                                                monkeypatch, code, options):
        """Every payload row the serve synthesises is a row it records:
        none the channel dropped, none past the stop."""
        rows = []
        synthesise = server_module._DropletStack.synthesise
        monkeypatch.setattr(
            server_module._DropletStack, "synthesise",
            lambda self, blocks, *rest: rows.append(len(blocks))
            or synthesise(self, blocks, *rest))
        getitem = _TornadoBlockEncoder.__getitem__
        monkeypatch.setattr(
            _TornadoBlockEncoder, "__getitem__",
            lambda self, index: rows.append(
                np.arange(len(self))[index].size) or getitem(self, index))
        counters = _file_run(FileTransport.serve, tmp_path, code,
                             **options)[0]
        assert counters["delivered"] < counters["emitted"]
        assert sum(rows) == counters["delivered"]

    @pytest.mark.parametrize("code", CODES)
    def test_serves_continue_the_stream(self, width, tmp_path, code):
        """Two counted serves, then automatic ones, on one session: each
        writes what a packet-at-a-time serve writes, so the ids-only
        pass leaves the stream where the per-packet loop leaves it."""
        def run(serve, directory):
            session = _session(code)
            transport = FileTransport(directory, loss=0.2, seed=4)
            written = []
            for options in ({"count": 40}, {"count": 71}, {}, {"extra": 5}):
                report = serve(transport, session, **options)
                written.append((_counters(report),
                                (directory / "stream.pkt").read_bytes(),
                                (directory / "manifest.json").read_bytes()))
            return written

        assert (run(FileTransport.serve, tmp_path / "got")
                == run(oracle_file_serve, tmp_path / "want"))

    def test_an_rs_serve_computes_its_rows_without_held_tables(self,
                                                               tmp_path):
        """1 MiB of ``rs`` in 128 KiB blocks: the serve computes each
        block's recorded redundancy rows and no others, in one product
        whose tables are the kernel's scratch, not eight blocks' worth
        of held ones."""
        data = np.random.default_rng(1).integers(
            0, 256, size=1 << 20, dtype=np.uint8).tobytes()
        session = api.SenderSession(data, code="rs", packet_size=1024,
                                    block_size=128 << 10, seed=3)
        transport = FileTransport(tmp_path, loss=0.1, seed=5)
        tracemalloc.start()
        try:
            report = transport.serve(session)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12 << 20
        header = session.codec.header_size
        records = np.fromfile(tmp_path / "stream.pkt", dtype=np.uint8)
        blocks, indices, _ = record_ids(
            records.reshape(report.delivered, -1), header)
        encoders = session.source._payloads
        assert len(encoders) == 8
        for block, encoder in enumerate(encoders):
            k = encoder._code.k
            mine = indices[(blocks == block) & (indices >= k)]
            assert (np.flatnonzero(encoder._have).tolist()
                    == (np.unique(mine) - k).tolist())
            assert encoder._tables is None

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), loss=st.floats(0.0, 0.6),
           extra=st.integers(0, 12), code=st.sampled_from(CODES))
    def test_property_identical(self, tmp_path_factory, seed, loss, extra,
                                code):
        base = tmp_path_factory.mktemp("prop")
        options = dict(loss=loss, loss_seed=seed, extra=extra)
        assert (_file_run(FileTransport.serve, base / "got", code, **options)
                == _file_run(oracle_file_serve, base / "want", code,
                             **options))


# -- record windows: the object-free draw ---------------------------------------


class TestRecordWindow:
    @pytest.mark.parametrize("code", CODES)
    @pytest.mark.parametrize("packets", [157, 41],
                             ids=["multi-block", "single-block"])
    def test_rows_are_the_packets_bytes(self, width, code, packets):
        size = packets * PACKET
        want = [p.to_bytes() for p in _session(code, size=size).packets(260)]
        source = _session(code, size=size).source
        got = []
        stream = source.packets()
        for turn, count in enumerate([1, 70, 3, LOOKAHEAD, 0, 90, 64]):
            if turn % 2:
                got += [p.to_bytes() for p in islice(stream, count)]
            else:
                window = source.record_window(count)
                assert window.shape == (count, len(want[0]))
                got += [row.tobytes() for row in window]
        assert got == want

    @pytest.mark.parametrize("code", ["lt", "raptor", "tornado-b"])
    def test_unwind_resumes_from_the_last_record_kept(self, width, code):
        want = [p.to_bytes() for p in _session(code).packets(400)]
        source = _session(code).source
        got = []
        for keep in [0, 17, 40, 1, 39, 23] * 3:     # of windows of 40
            got += [row.tobytes()
                    for row in source.record_window(40)[:keep]]
            source.unwind(40 - keep)
        got += [p.to_bytes() for p in source.packets(40)]
        assert got == want
        # no taken-back slot is left queued: the slots to come are the
        # straight stream's
        twin = _session(code).source
        list(twin.packets(400))
        assert ([ids.tolist() for ids in source.draw_ids(700)]
                == [ids.tolist() for ids in twin.draw_ids(700)])

    def test_reweight_drops_the_slots_taken_back(self, width):
        """A per-packet sender stopped before emission ``e`` and then
        reweighted draws slot ``e`` from the new schedule."""
        weights = [0.2, 5.0, 1.0]
        twin = _session("lt").source
        want = [p.to_bytes() for p in twin.packets(6)]
        twin.reweight(weights)
        want += [p.to_bytes() for p in twin.packets(30)]
        source = _session("lt").source
        got = [row.tobytes() for row in source.record_window(10)[:6]]
        source.unwind(4)
        source.reweight(weights)
        got += [row.tobytes() for row in source.record_window(30)]
        assert got == want

    @pytest.mark.parametrize("count", [-3, 11, 20])
    def test_unwind_past_the_last_window_raises_and_moves_nothing(
            self, count):
        """Only what the last window emitted can be taken back, as on a
        loss channel: asking for more, or for less than nothing,
        raises and leaves the source and the channel in step."""
        source, twin = _session("lt").source, _session("lt").source
        channel = LossyChannel(BernoulliLoss(0.3), rng=5)
        source.record_window(10)
        twin.record_window(10)
        channel.delivery_mask(10)
        for unwind in (source.unwind, channel.unwind):
            with pytest.raises(ParameterError, match="cannot unwind"):
                unwind(count)
        assert channel.sent == 10
        assert (source.record_window(30).tobytes()
                == twin.record_window(30).tobytes())

    def test_unwind_counts_only_the_pulled_rows_of_a_held_window(self):
        """After ``packets()`` pulled 5 rows of a held window, those 5
        are the last window's emissions: a sixth raises."""
        source = _session("lt").source
        pulled = [p.to_bytes() for p in source.packets(5)]
        with pytest.raises(ParameterError, match="cannot unwind"):
            source.unwind(6)
        source.unwind(2)
        got = pulled[:3] + [row.tobytes() for row in source.record_window(20)]
        assert got == [p.to_bytes() for p in _session("lt").packets(23)]


# -- windowed UDP serve vs the per-packet oracle -------------------------------


def _udp_available():
    try:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.bind(("127.0.0.1", 0))
        finally:
            sock.close()
        return True
    except OSError:
        return False


class _Ear:
    """A loopback socket that keeps every datagram it is sent, in order."""

    def __init__(self):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 22)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.setblocking(False)
        self.address = self.sock.getsockname()

    def drain(self):
        datagrams = []
        while True:
            try:
                datagrams.append(self.sock.recv(65535))
            except BlockingIOError:
                return datagrams

    def close(self):
        self.sock.close()


@pytest.fixture
def ears():
    pair = [_Ear(), _Ear()]
    yield pair
    for ear in pair:
        ear.close()


def _udp_datagrams(serve, session, ears, *, destinations=1, loss=0.0,
                   loss_seed=5, pace=None, manifest_interval=64, **options):
    """One serve; ``(report, datagrams per destination)``."""
    transport = UdpTransport([ear.address for ear in ears[:destinations]],
                             loss=loss, seed=loss_seed, pace=pace,
                             manifest_interval=manifest_interval)
    report = serve(transport, session, **options)
    return report, [ear.drain() for ear in ears[:destinations]]


def _udp_run(serve, session, ears, **options):
    """One serve; ``(counters, frame stream per destination)``.

    The frame stream — every datagram's ``iter_frames``, flattened — is
    the contract: how many frames share a datagram is the sender's
    business, so ``datagrams`` is left out of the counters compared.
    """
    return _frame_streams(*_udp_datagrams(serve, session, ears, **options))


def _frame_streams(report, heard):
    """A serve's ``(counters, frame stream per destination)``, as
    :func:`_udp_run` returns them."""
    counters = _counters(report)
    del counters["datagrams"]
    return counters, [[frame for datagram in datagrams
                       for frame in iter_frames(datagram)]
                      for datagrams in heard]


def _longest_runs(report, heard, interval, window, step):
    """Check that every data datagram heard is the longest run the rule
    allows — whole frames, within the budget, serials consecutive (so
    none spans a row dropped for that destination), inside one manifest
    interval and one window — and return the runs' serials."""
    per = DATAGRAM_BUDGET // step
    total = []
    for datagrams in heard:
        runs = []
        for datagram in datagrams:
            frames = list(iter_frames(datagram))
            if frames[0][0] == FRAME_MANIFEST:
                assert len(frames) == 1     # a datagram of its own
                continue
            assert len(datagram) == len(frames) * step <= DATAGRAM_BUDGET
            assert {kind for kind, _ in frames} == {FRAME_DATA}
            serials = [int.from_bytes(body[4:8], "big")
                       for _, body in frames]
            assert serials == list(range(serials[0], serials[-1] + 1))
            assert serials[0] // interval == serials[-1] // interval
            assert serials[0] // window == serials[-1] // window
            runs.append(serials)
        for run, after in zip(runs, runs[1:]):
            cut = after[0]
            if cut == run[-1] + 1 and cut % interval and cut % window:
                assert len(run) == per      # only the budget ended it
        total.append(runs)
    assert report.datagrams == sum(map(len, total))
    assert report.delivered == sum(len(run) for runs in total
                                   for run in runs)
    return total


def _data_records(frames):
    """The data-frame bodies of a frame stream, in order."""
    return [body for kind, body in frames if kind == FRAME_DATA]


class _ScriptedPolicy:
    """Decisions by the book: ``script[i]`` answers the i-th ``decide``."""

    def __init__(self, script):
        self.script = list(script)
        self.asked = 0

    def observe(self, report, now=0.0):
        pass

    def decide(self, block_ks, now=0.0):
        weights, done = self.script[min(self.asked, len(self.script) - 1)]
        self.asked += 1
        return PolicyDecision(rate_scale=1.0,
                              weights=tuple(weights), active=0 if done else 1,
                              complete=1 if done else 0)


@pytest.mark.skipif(not _udp_available(),
                    reason="UDP loopback sockets unavailable")
class TestUdpServe:
    @pytest.mark.parametrize("code", CODES)
    @pytest.mark.parametrize("packets", [157, 41],
                             ids=["multi-block", "single-block"])
    def test_datagrams_identical_to_per_packet_loop(self, width, ears, code,
                                                    packets):
        """The frames of the per-packet loop's datagrams, in its order
        (since frames began to share datagrams, no longer one each)."""
        size = packets * PACKET
        got = _udp_run(UdpTransport.serve, _session(code, size=size), ears,
                       count=333)
        want = _udp_run(oracle_udp_serve, _session(code, size=size), ears,
                        count=333)
        assert got == want
        records = _data_records(got[1][0])
        assert len(records) == 333
        assert len(records[0]) == PACKET + (16 if packets == 157 else 12)
        # manifest frames sit where they sat: before emissions 0, 64, ...
        assert [i for i, (kind, _) in enumerate(got[1][0])
                if kind == FRAME_MANIFEST] == [0, 65, 130, 195, 260, 325, 339]

    @pytest.mark.parametrize("code", ["lt", "tornado-b"])
    @pytest.mark.parametrize("window", [1, 50, 64, 333])
    def test_any_window_size(self, width, ears, monkeypatch, code,
                             window):
        want = _udp_run(oracle_udp_serve, _session(code), ears, count=333)
        monkeypatch.setattr(udp_module, "SERVE_WINDOW", window)
        assert _udp_run(UdpTransport.serve, _session(code), ears,
                        count=333) == want

    @pytest.mark.parametrize("code", ["lt", "raptor", "rs"])
    def test_two_destinations_with_injected_loss(self, width, ears, code):
        options = dict(destinations=2, loss=0.3, count=200)
        got = _udp_run(UdpTransport.serve, _session(code), ears, **options)
        want = _udp_run(oracle_udp_serve, _session(code), ears, **options)
        assert got == want
        assert got[0]["dropped"] > 0
        assert got[0]["delivered"] + got[0]["dropped"] == 400
        assert got[1][0] != got[1][1]       # independent loss per destination

    @pytest.mark.parametrize("code", ["lt", "tornado-b"])
    @pytest.mark.parametrize("adapt_every", [7, 64])
    def test_policy_reweights_on_the_next_slot(self, width, ears, code,
                                               adapt_every):
        script = [((), False), ((0.2, 5.0, 1.0), False), ((), False),
                  ((3.0, 0.5, 0.5), False), ((), False)]

        def run(serve):
            policy = _ScriptedPolicy(script)
            result = _udp_run(serve, _session(code), ears, count=300,
                              policy=policy, adapt_every=adapt_every)
            return result, policy.asked

        got, want = run(UdpTransport.serve), run(oracle_udp_serve)
        assert got == want
        assert got[1] == (300 - 1) // adapt_every
        blocks = [int.from_bytes(r[12:16], "big")
                  for r in _data_records(got[0][1][0])]
        straight = [p.block for p in _session(code).packets(300)]
        assert blocks != straight            # the reweights took effect

    def test_serial_wraps_at_2_to_the_32(self, width, ears):
        def run(serve):
            session = _session("lt")
            # three block cursors summing to 2**32 - 10 emissions
            session.source._cursors[:] = (SERIAL_MODULUS - 10) // 3
            return _udp_run(serve, session, ears, count=40)

        got = run(UdpTransport.serve)
        assert got == run(oracle_udp_serve)
        serials = [int.from_bytes(r[4:8], "big")
                   for r in _data_records(got[1][0])]
        assert serials == [(SERIAL_MODULUS - 10 + t) % SERIAL_MODULUS
                           for t in range(40)]

    # -- which frames share a datagram -----------------------------------------

    def test_runs_end_at_budget_drop_manifest_and_window(self, width, ears,
                                                         monkeypatch):
        """Every data datagram is the longest run the rule allows: whole
        frames, within the budget, serials consecutive (so none spans a
        row dropped for that destination) and inside one manifest
        interval and one window."""
        window, interval, step = 150, 64, 3 + 16 + PACKET
        per = DATAGRAM_BUDGET // step
        monkeypatch.setattr(udp_module, "SERVE_WINDOW", window)
        report, heard = _udp_datagrams(
            UdpTransport.serve, _session("lt"), ears, destinations=2,
            loss=0.03, count=500)
        assert report.dropped > 0 and per == {32: 28, 36: 26}[PACKET]
        for runs in _longest_runs(report, heard, interval, window, step):
            assert max(map(len, runs)) == per

    @pytest.mark.parametrize("interval,adapt_every", [
        (1, 64),      # every emission is a cut
        (7, 64),      # an odd stride
        (64, 7),      # listen points that do not divide manifest points
    ])
    @pytest.mark.parametrize("loss", [0.0, 0.3])
    @pytest.mark.parametrize("destinations", [1, 2])
    def test_manifest_intervals_against_the_oracle(
            self, width, ears, monkeypatch, interval, adapt_every, loss,
            destinations):
        """Any manifest stride and listen cadence: the oracle's frames,
        and datagrams the longest runs the rule allows."""
        window = 150
        monkeypatch.setattr(udp_module, "SERVE_WINDOW", window)
        options = dict(destinations=destinations, loss=loss, count=333,
                       manifest_interval=interval, adapt_every=adapt_every)
        report, heard = _udp_datagrams(UdpTransport.serve, _session("lt"),
                                       ears, **options)
        assert _frame_streams(report, heard) == _udp_run(
            oracle_udp_serve, _session("lt"), ears, **options)
        assert report.manifest_frames == -(-333 // interval) + 1
        _longest_runs(report, heard, interval, window, 3 + 16 + PACKET)

    @pytest.mark.parametrize("packet", [722, 1024, 2000])
    def test_wide_frames_travel_alone_byte_identical(self, ears, packet):
        """A frame wider than half the budget — or than all of it — is
        its own datagram, exactly the per-packet loop's."""
        def run(serve):
            session = api.SenderSession(
                _data(3, 40 * packet), code="lt", packet_size=packet,
                block_size=16 * packet, seed=3)
            report, heard = _udp_datagrams(serve, session, ears,
                                           loss=0.2, count=100)
            return report.delivered, heard

        got = run(UdpTransport.serve)
        assert got == run(oracle_udp_serve)
        assert all(len(list(iter_frames(d))) == 1 for d in got[1][0])

    def test_half_budget_frames_pair_up(self, ears):
        session = api.SenderSession(_data(3, 40 * 721), code="lt",
                                    packet_size=721, block_size=64 * 721,
                                    seed=3)
        report, heard = _udp_datagrams(UdpTransport.serve, session, ears,
                                       count=64)
        assert report.datagrams == 32
        assert {len(d) for d in heard[0][1:-1]} == {DATAGRAM_BUDGET}

    def test_paced_serve_sends_each_frame_before_the_sleep(self, width, ears,
                                                           monkeypatch):
        """One token at a time on an injected clock: when the bucket
        sleeps before emission ``r``, frames ``0 .. r-1`` are already on
        the wire, not parked in an open run."""
        now, heard, sleeps = [0.0], [], []

        def sleep(delay):
            if delay > 0:
                heard.extend(ears[0].drain())
                sleeps.append(sum(kind == FRAME_DATA for datagram in heard
                                  for kind, _ in iter_frames(datagram)))
                now[0] += delay

        monkeypatch.setattr(
            udp_module, "TokenBucket",
            lambda rate: TokenBucket(rate, clock=lambda: now[0]))
        monkeypatch.setattr(udp_module.time, "sleep", sleep)
        report, _ = _udp_datagrams(UdpTransport.serve, _session("lt"), ears,
                                   pace=10.0, count=12)
        assert report.emitted == 12
        assert sleeps == list(range(1, 12))

    def test_irregular_sleeps_cut_lossy_runs_and_lose_no_frame(
            self, width, ears, monkeypatch):
        """A token bucket that sleeps before some rows and not others
        cuts every destination's open run there, mid-plan: two lossy
        destinations still hear the unpaced oracle's frames."""
        now, slept = [0.0], []
        steps = iter(np.random.default_rng(4).uniform(0.0, 0.2, size=1000))

        def clock():
            now[0] += next(steps)
            return now[0]

        def sleep(delay):
            slept.append(delay)
            now[0] += delay

        monkeypatch.setattr(
            udp_module, "TokenBucket",
            lambda rate: TokenBucket(rate, clock=clock))
        monkeypatch.setattr(udp_module.time, "sleep", sleep)
        options = dict(destinations=2, loss=0.3, count=333)
        got = _udp_run(UdpTransport.serve, _session("lt"), ears, pace=10.0,
                       **options)
        assert 0 < len(slept) < 333
        assert got == _udp_run(oracle_udp_serve, _session("lt"), ears,
                               **options)

    # -- a stop mid-window skips no id ------------------------------------------

    def _straight(self, code, ears, count):
        return _data_records(_udp_run(
            oracle_udp_serve, _session(code), ears, count=count)[1][0])

    @pytest.mark.parametrize("code", ["lt", "raptor", "tornado-b"])
    def test_consecutive_serves_continue_the_stream(self, width, ears, code):
        session = _session(code)
        first = _udp_run(UdpTransport.serve, session, ears, count=70)
        second = _udp_run(UdpTransport.serve, session, ears, count=130)
        assert (_data_records(first[1][0]) + _data_records(second[1][0])
                == self._straight(code, ears, 200))

    @pytest.mark.parametrize("code", ["lt", "raptor", "tornado-b"])
    def test_stop_mid_window_then_serve_again(self, width, ears, code):
        session = _session(code)
        asked = []

        def stop():
            asked.append(None)
            return len(asked) > 37

        first = _udp_run(UdpTransport.serve, session, ears, count=200,
                         stop=stop)
        assert first[0]["emitted"] == first[0]["delivered"] == 37
        # ... and through packets(), which shares the cursors
        between = [p.to_bytes() for p in session.packets(5)]
        second = _udp_run(UdpTransport.serve, session, ears, count=100)
        assert (_data_records(first[1][0]) + between
                + _data_records(second[1][0])
                == self._straight(code, ears, 142))

    def test_exception_mid_run_sends_what_was_counted(self, width, ears):
        """An exception leaves with a run open: its frames go out, so
        the stream resumes with no id skipped or sent twice."""
        session = _session("lt")
        asked = []

        def stop():
            asked.append(None)
            if len(asked) > 37:
                raise RuntimeError("stop flag broke")
            return False

        with pytest.raises(RuntimeError):
            _udp_run(UdpTransport.serve, session, ears, count=200, stop=stop)
        first = _data_records([frame for datagram in ears[0].drain()
                               for frame in iter_frames(datagram)])
        assert len(first) == 37
        assert (first + [p.to_bytes() for p in session.packets(5)]
                == self._straight("lt", ears, 42))

    def test_all_complete_mid_serve_then_serve_again(self, width, ears):
        session = _session("lt")
        policy = _ScriptedPolicy([((), False), ((), True)])
        first = _udp_run(UdpTransport.serve, session, ears, count=300,
                         policy=policy, adapt_every=20)
        assert first[0]["emitted"] == 40
        second = _udp_run(UdpTransport.serve, session, ears, count=60)
        assert (_data_records(first[1][0]) + _data_records(second[1][0])
                == self._straight("lt", ears, 100))

    def test_zero_duration_sends_nothing_and_skips_nothing(self, width, ears):
        session = _session("lt")
        first = _udp_run(UdpTransport.serve, session, ears, count=50,
                         duration=0.0)
        assert first[0]["emitted"] == 0
        second = _udp_run(UdpTransport.serve, session, ears, count=50)
        assert _data_records(second[1][0]) == self._straight("lt", ears, 50)

    # -- the receiving end counts what it sees ----------------------------------

    def test_subscription_counts_every_datagram(self, width):
        data = _data(3)
        session = api.SenderSession(data, code="raptor", packet_size=PACKET,
                                    block_size=BLOCK, seed=3)
        with UdpSubscription("127.0.0.1:0", timeout=2.0) as sub:
            sub.socket.sendto(b"\x01\xff", sub.address)     # truncated frame
            report = UdpTransport([sub.address]).serve(session, count=157)
            receiver = api.ReceiverSession.from_subscription(sub)
            sub.feed(receiver)
            assert receiver.is_complete and receiver.data() == data
            assert sub.malformed == 1
            # the feed stops reading once the decode completes
            assert (1 + report.datagrams < sub.datagrams
                    <= 1 + report.datagrams + report.manifest_frames)
            assert sub.records_yielded == receiver.packets_used == 157
            assert (f"datagrams={sub.datagrams}, records=157, malformed=1"
                    in repr(sub))
