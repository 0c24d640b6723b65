"""The server's slot draw is the public schedule, sliced.

``TransferServer`` takes its slots off the schedule's int64 chunks
(:func:`~repro.transfer.schedule.schedule_chunks`) and puts taken-back
slots in front of the held chunk as an array prefix.  Any interleaving
of draws, take-backs, reweights and per-packet pulls must give the
``(block, index, serial)`` stream of :class:`_PerSlot`: a sender that
walks the public slot iterators (``make_schedule``,
``weighted_slots``) one slot at a time, with a list of taken-back
slots in front of them.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes.registry import block_seed
from repro.fountain.packets import SERIAL_MODULUS, record_ids
from repro.transfer import BlockPlan, ObjectCodec, TransferServer
from repro.transfer.schedule import (
    carousel_order,
    make_schedule,
    weighted_slots,
)

_PACKET = 8
_SEED = 11


class _PerSlot:
    """The stream one slot at a time, from the public slot iterators."""

    def __init__(self, codec: ObjectCodec, schedule: str, seed: int):
        self.ks = codec.plan.block_ks
        self.schedule = schedule
        self.cursors = [0] * len(self.ks)
        self.orders = None if codec.is_rateless else [
            carousel_order(codec.code_for(b).n, block_seed(seed, b))
            for b in range(len(self.ks))]
        #: block ids of the last draw that may still be taken back
        self.last: list = []
        self.reweight(None)

    def reweight(self, weights):
        self.slots = (make_schedule(self.schedule, self.ks) if weights is None
                      else weighted_slots(self.ks, weights))
        self.back: list = []

    def take(self, count: int) -> list:
        out = []
        for _ in range(count):
            block = self.back.pop(0) if self.back else next(self.slots)
            t = self.cursors[block]
            index = t if self.orders is None else int(
                self.orders[block][t % self.orders[block].size])
            out.append((block, index, sum(self.cursors) % SERIAL_MODULUS))
            self.cursors[block] += 1
        self.last = [block for block, _, _ in out]
        return out

    def unwind(self, count: int) -> None:
        back = self.last[len(self.last) - count:]
        self.last = self.last[:len(self.last) - count]
        self.back = back + self.back
        for block in back:
            self.cursors[block] -= 1


def _codec(family: str, blocks: int, block_packets: int,
           tail: int) -> ObjectCodec:
    """``blocks`` blocks of ``block_packets`` packets, the last of
    ``tail``: uneven whenever ``tail < block_packets``."""
    packets = (blocks - 1) * block_packets + tail
    return ObjectCodec(BlockPlan(packets * _PACKET - 3, _PACKET,
                                 block_packets), code=family, seed=_SEED)


def _ids(records: np.ndarray, codec: ObjectCodec) -> list:
    return list(zip(*(ids.tolist() for ids in record_ids(
        records, codec.header_size))))


_WEIGHTS = st.lists(st.sampled_from([0.2, 0.5, 1.0, 3.0]), min_size=7,
                    max_size=7)
_OPS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["draw_ids", "records"]), st.integers(0, 300)),
    st.tuples(st.just("unwind"), st.floats(0.0, 1.0)),
    st.tuples(st.just("reweight"), st.one_of(st.none(), _WEIGHTS)),
    st.tuples(st.just("packets"), st.integers(0, 80))),
    min_size=1, max_size=14)


class TestSlotCursor:
    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(["lt", "rs"]),
           schedule=st.sampled_from(["interleave", "sequential"]),
           blocks=st.integers(1, 7), block_packets=st.integers(1, 40),
           tail=st.integers(1, 40), ops=_OPS)
    def test_any_interleaving_is_the_per_slot_stream(
            self, family, schedule, blocks, block_packets, tail, ops):
        codec = _codec(family, blocks, block_packets,
                       min(tail, block_packets))
        server = TransferServer(codec, bytes(codec.plan.file_size),
                                schedule=schedule, seed=_SEED)
        model = _PerSlot(codec, schedule, _SEED)
        for op, arg in ops:
            if op == "reweight":
                weights = None if arg is None else arg[:blocks]
                server.reweight(weights)
                model.reweight(weights)
            elif op == "unwind":
                # inside the last draw's chunk or back across its edge
                count = round(arg * len(model.last))
                server.unwind(count)
                model.unwind(count)
            elif op == "packets":
                got = [(p.block, p.index, p.serial)
                       for p in server.packets(arg)]
                assert got == model.take(arg)
                # the held window is handed back before any other draw,
                # and a take-back reaches only into a draw
                model.last = []
            elif op == "records":
                got = _ids(server.record_window(arg), codec)
                assert got == model.take(arg)
            else:
                got = server.draw_ids(arg)
                assert list(zip(*(ids.tolist() for ids in got))) \
                    == model.take(arg)
        # ... and the serial goes on from the last emission kept
        assert _ids(server.record_window(50), codec) == model.take(50)

    def test_a_take_back_across_chunk_edges_is_one_prefix(self):
        """Three draws over the first chunk edges (64 and 192 slots on
        the stripe), each unwound past the edge it crossed."""
        codec = _codec("lt", 5, 40, 13)
        server = TransferServer(codec, bytes(codec.plan.file_size),
                                seed=_SEED)
        model = _PerSlot(codec, "interleave", _SEED)
        for draw, back in [(100, 60), (150, 120), (400, 390)]:
            got = _ids(server.record_window(draw), codec)
            assert got == model.take(draw)
            server.unwind(back)
            model.unwind(back)
        assert _ids(server.record_window(600), codec) == model.take(600)
