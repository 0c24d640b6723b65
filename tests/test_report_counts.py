"""One record per count: each end-of-run report holds the record that
counts it — a :class:`~repro.fountain.metrics.ReceptionStats` or a
:class:`~repro.net.transport.base.ServeReport` — and derives the rest.

Every serve and every simulation harness is held here to counts taken
apart from the value it reports:

* ``ServeReport.dropped`` is ``emitted * destinations - delivered``, and
  equals the per-packet serve oracles' own tally of dropped records
  (``tests/_oracles.py``), while ``delivered`` is what the subscribers
  hold;
* ``ReceiverSession.packets_used`` is ``stats().total_received``, and
  equals the records a one-record-at-a-time receiver took;
* a result's ``stats`` equals the counters of the client that produced
  it, and a swarm's derived ``overhead`` / ``completed`` equal the real
  client's replay of each receiver.

``make test-udp`` runs the UDP case.
"""

from __future__ import annotations

import socket

import numpy as np
import pytest

from _oracles import oracle_file_serve, oracle_memory_serve, oracle_udp_serve
from repro import api
from repro.codes.tornado.presets import tornado_a
from repro.fountain import aggregate
from repro.net.loss import BernoulliLoss
from repro.net.transport import FileTransport, MemoryTransport, UdpTransport
from repro.net.transport.base import FRAME_DATA, iter_frames
from repro.protocol import session as protocol_session
from repro.sim import swarm
from repro.sim import transfer as sim_transfer
from repro.sim.swarm import LossSpec, ReceiverGroup, Scenario, SwarmSimulator


def _sender(seed: int = 3) -> api.SenderSession:
    data = np.random.default_rng(seed).integers(
        0, 256, 157 * 32, dtype=np.uint8).tobytes()
    return api.SenderSession(data, code="lt", packet_size=32,
                             block_size=60 * 32, seed=seed)


def _check_serve(got, want) -> None:
    """The windowed serve's report against the oracle's, whose own
    dropped tally the oracle asserted against its report."""
    assert got.dropped == got.emitted * got.destinations - got.delivered
    assert (got.emitted, got.delivered, got.dropped) \
        == (want.emitted, want.delivered, want.dropped)
    assert got.dropped > 0


def _check_receiver(manifest: dict, records) -> api.ReceiverSession:
    """A batch-fed receiver, held to one fed a record at a time."""
    batched = api.ReceiverSession(manifest)
    batched.receive_records(records)
    single = api.ReceiverSession(manifest)
    used = 0
    for record in records:
        used += 1
        if single.receive_record(bytes(record)):
            break
    assert batched.is_complete == single.is_complete
    assert batched.packets_used == batched.stats().total_received == used
    assert batched.stats() == single.stats() == batched.client.stats()
    return batched


def _records(sub) -> np.ndarray:
    return np.concatenate(list(sub.record_batches()))


def test_memory_serve_counts():
    def serve(run):
        transport = MemoryTransport(loss=0.2, seed=5)
        subs = [transport.subscribe() for _ in range(3)]
        return run(transport, _sender()), subs

    got, subs = serve(MemoryTransport.serve)
    want, _ = serve(oracle_memory_serve)
    _check_serve(got, want)
    assert got.delivered == sum(sub.available for sub in subs)
    for sub in subs:
        assert _check_receiver(sub.manifest(), _records(sub)).is_complete


def test_file_serve_counts(tmp_path):
    def serve(run, directory):
        return run(FileTransport(directory, loss=0.2, seed=5), _sender(),
                   extra=4)

    got = serve(FileTransport.serve, tmp_path / "got")
    want = serve(oracle_file_serve, tmp_path / "want")
    _check_serve(got, want)
    sub = FileTransport(tmp_path / "got").subscribe()
    records = _records(sub)
    assert got.delivered == len(records) == sub.available
    receiver = _check_receiver(sub.manifest(), records)
    assert receiver.is_complete
    report = api.receive_stream(tmp_path / "got")
    assert report.stats == receiver.stats()


def _udp_available() -> bool:
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
            probe.bind(("127.0.0.1", 0))
        return True
    except OSError:
        return False


@pytest.mark.skipif(not _udp_available(),
                    reason="UDP loopback sockets unavailable")
def test_udp_serve_counts():
    ears = []
    try:
        for _ in range(2):
            ear = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            ears.append(ear)
            ear.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 22)
            ear.bind(("127.0.0.1", 0))
            ear.setblocking(False)

        def serve(run):
            transport = UdpTransport([ear.getsockname() for ear in ears],
                                     loss=0.3, seed=5)
            report = run(transport, _sender(), count=300)
            heard = []
            for ear in ears:
                frames = []
                while True:
                    try:
                        datagram = ear.recv(65535)
                    except BlockingIOError:
                        break
                    frames += [body for kind, body in iter_frames(datagram)
                               if kind == FRAME_DATA]
                heard.append(frames)
            return report, heard

        got, heard = serve(UdpTransport.serve)
        want, _ = serve(oracle_udp_serve)
    finally:
        for ear in ears:
            ear.close()
    _check_serve(got, want)
    assert got.destinations == 2
    assert got.delivered == sum(map(len, heard))
    for frames in heard:
        _check_receiver(_sender().manifest(), frames)


def _recording(monkeypatch, module, name):
    """Patch ``module.name`` with a subclass that keeps every instance."""
    made = []
    base = getattr(module, name)

    class Recording(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(module, name, Recording)
    return made


@pytest.mark.parametrize("payloads", [True, False])
def test_simulate_transfer_stats_are_its_clients(monkeypatch, payloads):
    clients = _recording(monkeypatch, sim_transfer, "TransferClient")
    result = sim_transfer.simulate_transfer(
        40_000, packet_size=256, block_packets=32, family="tornado-b",
        loss=0.2, seed=4, payloads=payloads)
    (client,) = clients
    assert client.is_complete and result.stats == client.stats()
    assert result.stats.source_packets == client.codec.total_k
    assert result.stats.total_received < result.packets_sent


def test_run_session_stats_are_its_receivers(monkeypatch):
    receivers = _recording(monkeypatch, protocol_session, "LayeredReceiver")
    results = protocol_session.run_session(
        "lt", k=200, ambient_loss_rates=[0.05, 0.3],
        capacity_multipliers=[8.0, 2.0], seed=7)
    assert len(receivers) == len(results) == 2
    for result, receiver in zip(results, receivers):
        assert result.stats == receiver.stats()
        assert result.completed == receiver.is_complete


def test_aggregate_download_stats_are_its_clients(monkeypatch):
    clients = _recording(monkeypatch, aggregate, "MultiSourceClient")
    result = aggregate.simulate_aggregate_download(
        tornado_a(300, seed=1), 3, BernoulliLoss(0.2), rng=2)
    (client,) = clients
    assert result.stats == client.stats()
    # each mirror's own tallies add up to the decoder's counts
    assert result.stats.total_received == sum(
        r.received for r in result.per_source)
    assert result.stats.distinct_received == sum(
        r.useful for r in result.per_source)


def test_swarm_overheads_are_the_replayed_clients(monkeypatch):
    """Reed-Solomon decodes at exactly ``k``, so the engine's receivers
    are the real client's, slot for slot."""
    scenario = Scenario(
        name="counts", code="rs", file_size=48 * 1024, packet_size=1024,
        block_packets=16, seed=7, max_sweeps=30,
        groups=[ReceiverGroup(name="all", count=24,
                              loss=LossSpec.make("bernoulli",
                                                 p=[0.0, 0.4]),
                              join=[0, 40], leave=[20, 200])])
    result = SwarmSimulator(scenario).run()
    clients = _recording(monkeypatch, swarm, "TransferClient")
    swarm.replay_receivers(scenario, np.arange(result.receivers))
    assert result.completed.any() and not result.completed.all()
    assert result.completed.tolist() == [c.is_complete for c in clients]
    assert np.array_equal(np.isnan(result.overhead), ~result.completed)
    for i in np.flatnonzero(result.completed).tolist():
        stats = clients[i].stats()
        assert result.received[i] == stats.total_received
        assert result.overhead[i] == stats.reception_overhead
