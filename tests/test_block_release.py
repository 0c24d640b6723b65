"""A finished block leaves its decoder.

The moment a block decodes, :class:`~repro.transfer.client.TransferClient`
writes its bytes into the one object buffer and drops the block's
client and decoder, keeping only its reception counters.  These tests
deliver a ragged object (its tail is not a whole packet) over memory,
file and UDP loopback for each decoder family and check that

* no reference to a completed block's decoder survives the call that
  completed it (cyclic garbage collection off, so reference counting
  alone must free it);
* every counter read at completion is what the same run reports with
  the decoders kept alive;
* ``block_data`` and ``object_data`` read the buffer: the source rows
  with the tail packet zero-padded, and the exact object;
* a decoder's payload stores are private anonymous mappings of their
  own, so dropping the decoder hands their pages back to the system
  rather than to a heap that keeps them resident, and a forked process
  gets them copy-on-write, as it gets the heap.
"""

from __future__ import annotations

import gc
import pathlib
import mmap
import weakref

import numpy as np
import pytest

from repro import api
from repro.codes.peeling import payload_store
from repro.codes.registry import build_code
from repro.fountain.metrics import ReceptionStats
from repro.net.transport import FileTransport, MemoryTransport, UdpTransport
from repro.net.transport.udp import UdpSubscription
from repro.transfer import TransferClient
from test_transport import needs_udp

CODES = ["lt", "raptor", "tornado-b"]
PACKET = 256
BLOCK = 32 * PACKET
#: three blocks of 32, 32 and 15 packets; the last packet is 33 bytes.
SIZE = 2 * BLOCK + 14 * PACKET + 33


def _object() -> bytes:
    return np.random.default_rng(17).integers(
        0, 256, SIZE, dtype=np.uint8).tobytes()


def _sender(code: str) -> api.SenderSession:
    return api.SenderSession(_object(), code=code, packet_size=PACKET,
                             block_size=BLOCK, seed=5)


def _memory(code, tmp_path):
    transport = MemoryTransport(loss=0.1, seed=3)
    subscription = transport.subscribe()
    transport.serve(_sender(code))
    receiver = api.ReceiverSession.from_subscription(subscription)
    subscription.feed(receiver)
    return receiver


def _file(code, tmp_path):
    FileTransport(tmp_path / code, loss=0.1, seed=3).serve(_sender(code))
    subscription = FileTransport(tmp_path / code).subscribe()
    receiver = api.ReceiverSession.from_subscription(subscription)
    subscription.feed(receiver)
    return receiver


def _udp(code, tmp_path):
    sender = _sender(code)
    with UdpSubscription("127.0.0.1:0", timeout=10.0) as subscription:
        sender.serve(UdpTransport([subscription.address], loss=0.1, seed=3),
                     count=4 * sender.total_k)
        receiver = api.ReceiverSession.from_subscription(subscription)
        subscription.feed(receiver)
    return receiver


DELIVERIES = [pytest.param(_memory, id="memory"),
              pytest.param(_file, id="file"),
              pytest.param(_udp, id="udp", marks=needs_udp)]


def _counters(receiver: api.ReceiverSession):
    client = receiver.client
    return ([client.block_stats(b) for b in range(client.num_blocks)],
            client.stats(), client.distinct_received, client.progress,
            receiver.packets_used)


@pytest.fixture
def no_cyclic_gc():
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


@pytest.mark.parametrize("deliver", DELIVERIES)
@pytest.mark.parametrize("code", CODES)
class TestCompletedBlockRelease:
    def test_decoder_is_dead_once_its_block_completes(
            self, code, deliver, tmp_path, monkeypatch, no_cyclic_gc):
        decoders = {}
        finish = TransferClient._finish
        receive_many = TransferClient.receive_many

        def recording(self, block, decoder):
            decoders[block] = weakref.ref(decoder)
            finish(self, block, decoder)

        def checking(self, *args, **kwargs):
            done = receive_many(self, *args, **kwargs)
            alive = [b for b, ref in decoders.items() if ref() is not None]
            assert not alive, f"completed blocks {alive} kept decoders"
            return done

        monkeypatch.setattr(TransferClient, "_finish", recording)
        monkeypatch.setattr(TransferClient, "receive_many", checking)
        receiver = deliver(code, tmp_path)
        assert receiver.is_complete
        assert sorted(decoders) == list(range(receiver.codec.num_blocks))
        assert receiver.data() == _object()

    def test_counters_equal_a_run_that_keeps_its_decoders(
            self, code, deliver, tmp_path, monkeypatch):
        released = _counters(deliver(code, tmp_path / "released"))
        kept = {}
        finish = TransferClient._finish

        def keeping(self, block, decoder):
            kept[block] = decoder
            finish(self, block, decoder)

        monkeypatch.setattr(TransferClient, "_finish", keeping)
        receiver = deliver(code, tmp_path / "kept")
        assert _counters(receiver) == released
        plan = receiver.codec.plan
        assert released[0] == [
            ReceptionStats.of_decoder(plan.spec(b).k, kept[b])
            for b in sorted(kept)]
        assert released[2] == sum(d.packets_added for d in kept.values())

    def test_block_data_reads_zero_padded_rows_from_the_buffer(
            self, code, deliver, tmp_path):
        receiver = deliver(code, tmp_path)
        plan = receiver.codec.plan
        data = _object()
        for spec in plan.blocks:
            rows = receiver.client.block_data(spec.block)
            assert rows.shape == (spec.k, PACKET)
            np.testing.assert_array_equal(
                rows, plan.source_block(data, spec.block))
        assert not receiver.client.block_data(plan.num_blocks - 1)[
            -1, 33:].any()
        assert receiver.data() == data


def _mapping(array):
    while isinstance(array, np.ndarray):
        array = array.base
    if isinstance(array, memoryview) and isinstance(array.obj, mmap.mmap):
        return array.obj
    return None


def _private(store) -> bool:
    """Whether ``/proc/self/maps`` marks the pages of ``store`` private."""
    address = store.__array_interface__["data"][0]
    with open("/proc/self/maps") as maps:
        for line in maps:
            span, perms = line.split()[:2]
            lo, hi = (int(end, 16) for end in span.split("-"))
            if lo <= address < hi:
                return perms[3] == "p"
    raise AssertionError("store address not in /proc/self/maps")


@pytest.mark.parametrize("code", CODES)
def test_payload_stores_are_private_mappings_of_their_own(code):
    decoder = build_code(code, 16, seed=1).new_decoder(payload_size=64)
    stores = [decoder.values]
    if code == "raptor":
        stores.append(decoder._sys_payloads)
    for store in stores:
        mapping = _mapping(store)
        assert mapping is not None and len(mapping) == store.nbytes
        assert store.flags.writeable and not store.any()
        if pathlib.Path("/proc/self/maps").exists():
            assert _private(store)


def test_an_empty_payload_store_maps_nothing():
    store = payload_store(0, 64)
    assert store.shape == (0, 64) and _mapping(store) is None
