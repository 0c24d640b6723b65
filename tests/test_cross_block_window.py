"""One synthesis pass per window, across blocks.

A rateless ``TransferServer`` synthesises a whole ``record_window`` in
one pass over its stacked droplet inputs: one neighbour derivation per
group of blocks whose droplet specs share ``k`` and the degree pmf (a
key per row), one XOR gather over the stack.  These tests hold that
pass to the per-packet stream, byte for byte, at a packet width of
whole uint64 lanes and at a ragged one, in the cases it has to get
right — two spec groups in one window, a Raptor
window that mixes systematic and repair rows, windows after
``unwind`` / ``reweight`` / ``reset``, and a droplet whose walk comes
up short inside a multi-block window — and hold the stack to being the
one copy of the data every block source and every fork reads.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes.lt.code import LTCode
from repro.codes.lt.encoder import DropletSpec
from repro.transfer import BlockPlan, ObjectCodec, TransferServer

_PACKET = 48

#: bytes off a whole-lane width: none (the XOR kernels' lane view) and
#: three (their byte route).
_TRIMS = {"lanes": 0, "ragged": 3}


@pytest.fixture(params=sorted(_TRIMS))
def trim(request):
    return _TRIMS[request.param]


def _data(size: int, seed: int = 5) -> bytes:
    return np.random.default_rng(seed).integers(
        0, 256, size=size, dtype=np.uint8).tobytes()


def _pair(code: str, packets: int, block_packets: int, seed: int = 11,
          packet_size: int = _PACKET):
    """A server under test and its per-packet twin over the same data."""
    codec = ObjectCodec(BlockPlan(packets * packet_size - 3, packet_size,
                                  block_packets), code=code, seed=seed)
    data = _data(codec.plan.file_size)
    return (TransferServer(codec, data, seed=3),
            TransferServer(codec, data, seed=3))


def _records(server: TransferServer, count: int):
    return [row.tobytes() for row in server.record_window(count)]


def _packets(server: TransferServer, count: int):
    return [packet.to_bytes() for packet in server.packets(count)]


class TestWindowParity:
    @pytest.mark.parametrize("code", ["lt", "raptor"])
    def test_short_tail_puts_two_spec_groups_in_one_window(self, code, trim):
        live, twin = _pair(code, packets=100, block_packets=32,
                           packet_size=_PACKET - trim)
        assert len(live._stack._groups) == 2          # k = 32 and k = 4
        records = _records(live, 90)
        blocks = [int.from_bytes(r[12:16], "big") for r in records]
        assert 3 in blocks and 0 in blocks            # both groups drawn
        assert records == _packets(twin, 90)

    def test_raptor_window_straddles_systematic_and_repair(self, trim):
        live, twin = _pair("raptor", packets=64, block_packets=32,
                           packet_size=_PACKET - trim)
        records = _records(live, 100)                 # ~50 ids per block
        ids = [(int.from_bytes(r[12:16], "big"),
                int.from_bytes(r[0:4], "big")) for r in records]
        assert {i < 32 for _, i in ids} == {True, False}
        assert records == _packets(twin, 100)

    @pytest.mark.parametrize("code", ["lt", "raptor"])
    def test_windows_after_unwind_reweight_and_reset(self, code, trim):
        live, twin = _pair(code, packets=100, block_packets=32,
                           packet_size=_PACKET - trim)
        assert _records(live, 40)[:25] == _packets(twin, 25)
        live.unwind(15)
        assert _records(live, 30) == _packets(twin, 30)
        for server in (live, twin):
            server.reweight([0.2, 3.0, 1.0, 0.5])
        assert _records(live, 70) == _packets(twin, 70)
        for server in (live, twin):
            server.reset()
        assert _records(live, 50) == _packets(twin, 50)

    def test_short_walk_falls_back_on_its_own_blocks_key(self, trim):
        """Block 1 of this plan has the Raptor geometry ``(k=17,
        eps=0.2, seed=24)`` (``tests/test_raptor.py``'s searched spec):
        its repair droplet 1588 (internal row 1591) is a walk that comes
        up short, and so is block 0's repair droplet 1369 (row 1372).
        The two specs share k and the pmf, so both blocks derive in one
        call, and each fallback must walk its own block's spec."""
        live, twin = _pair("raptor:eps=0.2", packets=34, block_packets=17,
                           seed=1317093447, packet_size=16 - trim)
        specs = [live.codec.code_for(block).spec for block in (0, 1)]
        assert specs[1].seed == 24 and len(live._stack._groups) == 1
        with mock.patch.object(DropletSpec, "neighbours", autospec=True,
                               side_effect=DropletSpec.neighbours) as walk:
            records = _records(live, 3300)
        ids = {(int.from_bytes(r[12:16], "big"),
                int.from_bytes(r[0:4], "big")) for r in records}
        assert {(0, 1369), (1, 1588)} <= ids
        calls = [call.args for call in walk.call_args_list]
        assert [row for _, row in calls] == [1372, 1591]
        assert [spec for spec, _ in calls] == specs
        assert all(got is want for (got, _), want in zip(calls, specs))
        assert records == _packets(twin, 3300)


class TestSiblingDerivation:
    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(1, 300), seeds=st.lists(
        st.integers(0, 2**32 - 1), min_size=1, max_size=5, unique=True),
        data=st.data())
    def test_sibling_rows_equal_each_specs_own_derivation(self, k, seeds,
                                                          data):
        specs = [LTCode(k, seed=seed).spec for seed in seeds]
        member = np.asarray(data.draw(st.lists(
            st.integers(0, len(specs) - 1), min_size=1, max_size=60)))
        ids = np.asarray(data.draw(st.lists(
            st.integers(0, 5000), min_size=member.size,
            max_size=member.size)))
        flat, indptr = specs[0].neighbour_block(ids, specs=specs,
                                                member=member)
        for row, (m, i) in enumerate(zip(member.tolist(), ids.tolist())):
            np.testing.assert_array_equal(
                flat[indptr[row]:indptr[row + 1]], specs[m].neighbours(i))


class TestOneStack:
    @pytest.mark.parametrize("code", ["lt", "raptor"])
    def test_forks_share_the_stack(self, code):
        """LT droplets XOR the object rows; Raptor's pre-solve writes
        each block's intermediates into its rows of one slab."""
        server, _ = _pair(code, packets=100, block_packets=32)
        stack, codec = server._stack, server.codec
        if code == "raptor":
            first = 0
            for spec in map(codec.plan.spec, range(codec.num_blocks)):
                block_code = codec.code_for(spec.block)
                want = block_code.encoder(codec.source_block(
                    server._data, spec.block)).intermediates
                width = block_code.intermediate_count
                np.testing.assert_array_equal(
                    stack.inputs[first:first + width], want)
                first += width
            assert first == len(stack.inputs)
        else:
            assert stack.inputs is stack.rows
        fork = server.fork(seed=9)
        assert fork._stack is stack

    def test_stack_is_the_object_rows(self):
        server, _ = _pair("lt", packets=100, block_packets=32)
        plan = server.codec.plan
        rows = server._stack.rows
        assert rows.shape == (plan.total_packets, plan.packet_size)
        for spec in map(plan.spec, range(plan.num_blocks)):
            first = spec.byte_offset // plan.packet_size
            np.testing.assert_array_equal(
                rows[first:first + spec.k],
                plan.source_block(server._data, spec.block))

    @pytest.mark.parametrize("code", ["lt", "raptor"])
    def test_whole_packet_bytes_are_viewed_not_copied(self, code):
        codec = ObjectCodec(BlockPlan(100 * _PACKET, _PACKET, 32),
                            code=code, seed=11)
        data = _data(codec.plan.file_size)
        rows = TransferServer(codec, data, seed=3)._stack.rows
        assert np.shares_memory(rows, np.frombuffer(data, np.uint8))
        assert not rows.flags.writeable

    @pytest.mark.parametrize("code", ["lt", "raptor"])
    def test_a_ragged_object_gets_one_padded_copy(self, code):
        server, _ = _pair(code, packets=100, block_packets=32)
        rows = server._stack.rows
        assert not np.shares_memory(
            rows, np.frombuffer(server._data, np.uint8))
        assert not rows[-1, -3:].any()

    @pytest.mark.parametrize("code", ["lt", "raptor", "tornado-b"])
    def test_mutating_a_bytearray_after_the_session_changes_nothing(
            self, code):
        from repro.api import SenderSession

        data = _data(100 * _PACKET)
        options = dict(code=code, packet_size=_PACKET,
                       block_size=32 * _PACKET, seed=11)
        expected = SenderSession(data, **options).source.record_window(400)
        mutable = bytearray(data)
        session = SenderSession(mutable, **options)
        mutable[:] = bytes(len(mutable))
        np.testing.assert_array_equal(session.source.record_window(400),
                                      expected)
