"""Batched decode intake: equivalence, exactness, and the finisher.

The batch ingest path (droplet blocks through ``add_packets`` /
``add_equations`` / ``ReceiverSession.receive_records``) promises to be
*observationally equivalent* to one-at-a-time feeding: identical
recovered bytes, and — through the provable packet-deficit chunking —
identical reception counters at the moment of completion.  These tests
pin both halves of the promise, plus the GF(2) structured inactivation
finisher on hand-built stalled systems where pure peeling provably
cannot start.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.codes.backend import use_backend
from repro.codes.lt.decoder import LTDecoder
from repro.codes.peeling import PeelingEngine
from repro.codes.raptor.decoder import RaptorDecoder
from repro.codes.registry import build_code
from repro.fountain.client import FountainClient

from tests._oracles import (
    assert_batched_identical,
    eager_raptor_decoder,
    make_source,
)

# -- batched vs sequential intake, all families ------------------------------

#: (spec, k) pairs spanning the decoder implementations: the LT batch
#: path, the Tornado engine, and the registry's generic SetDecoder.
BATCH_CASES = [
    ("lt", 2),
    ("lt", 48),
    ("lt:c=0.05,delta=0.5", 100),
    ("tornado-b", 32),
    ("tornado-a", 129),
    ("rs", 16),
    ("interleaved", 16),
]


@pytest.mark.parametrize("seed", [1, 12])
@pytest.mark.parametrize("spec,k", BATCH_CASES,
                         ids=[f"{s}-k{k}" for s, k in BATCH_CASES])
def test_batched_intake_matches_sequential(spec, k, seed):
    run = assert_batched_identical(spec, k, payload_size=24, seed=seed)
    if run.complete:
        assert run.recovered == make_source(k, 24, seed).tobytes()


# -- property: arrival order and batch partition are irrelevant --------------

_FILE_SIZE = 8 * 1024
_PACKET = 128
_BLOCK_PACKETS = 16


def _stream_records(code_spec):
    """A deterministic sender stream (3x the source count) as records."""
    rng = np.random.default_rng(0xFEED)
    data = rng.integers(0, 256, size=_FILE_SIZE, dtype=np.uint8).tobytes()
    sender = api.SenderSession(data, code=code_spec, packet_size=_PACKET,
                               block_size=_BLOCK_PACKETS * _PACKET, seed=21)
    records = [packet.to_bytes()
               for packet in sender.packets(3 * sender.total_k)]
    return data, sender.manifest(), records


_LT_STREAM = _stream_records("lt")


@settings(max_examples=10, deadline=None)
@given(order_seed=st.integers(0, 2 ** 32 - 1),
       batch_sizes=st.lists(st.integers(1, 64), min_size=1, max_size=8))
def test_any_order_and_batching_is_counter_exact(order_seed, batch_sizes):
    """Shuffled arrivals, arbitrary batch partition: bytes and counters match.

    The batched session must consume the same packets as per-record
    feeding of the identical shuffled stream (the deficit chunking makes
    the counters *equal*, which subsumes the same-or-fewer guarantee)
    and reconstruct the identical object bytes.
    """
    data, manifest, records = _LT_STREAM
    order = np.random.default_rng(order_seed).permutation(len(records))
    shuffled = [records[i] for i in order]

    sequential = api.ReceiverSession(manifest)
    for record in shuffled:
        if sequential.receive_record(record):
            break
    assert sequential.is_complete

    batched = api.ReceiverSession(manifest)
    pos = cursor = 0
    while pos < len(shuffled) and not batched.is_complete:
        take = batch_sizes[cursor % len(batch_sizes)]
        cursor += 1
        batched.receive_records(shuffled[pos:pos + take])
        pos += take
    assert batched.is_complete
    assert batched.data() == sequential.data() == data
    assert batched.packets_used == sequential.packets_used
    assert batched.stats() == sequential.stats()


# -- the inactivation finisher on hand-built stalled systems -----------------

def _xor_rows(source, nodes):
    out = source[nodes[0]].copy()
    for node in nodes[1:]:
        out ^= source[node]
    return out


def _feed_system(engine, source, rows):
    for nodes in rows:
        engine.add_equation(np.asarray(nodes, dtype=np.int64),
                            _xor_rows(source, nodes))


#: every row has degree >= 2, so the peeling ripple can never start;
#: the 4-cycle spans rank 3 and the odd-weight row closes rank 4.
_STALLED_FULL_RANK = [[0, 1], [1, 2], [2, 3], [0, 3], [0, 1, 2]]


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_finisher_solves_fully_stalled_system(backend):
    source = make_source(4, 8, seed=5)
    with use_backend(backend):
        engine = PeelingEngine(4, payload_size=8, inactivation_limit=4)
        _feed_system(engine, source, _STALLED_FULL_RANK)
        assert not engine.is_complete  # no ripple ever started
        engine.maybe_inactivate()
        assert engine.is_complete
        assert np.array_equal(engine.source_data(), source)


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_finisher_failed_attempt_then_closing_row(backend):
    """A singular stall records its deficit; the closing row finishes it.

    ``{0,1},{1,2},{0,2}`` is a dependent cycle (rank 2), ``{2,3}``
    brings rank 3 of 4 — the attempt must fail without recovering
    anything, and the odd-weight row ``{0,1,2}`` (independent of the
    all-even span) must complete the decode on arrival.
    """
    source = make_source(4, 8, seed=9)
    with use_backend(backend):
        engine = PeelingEngine(4, payload_size=8, inactivation_limit=4)
        _feed_system(engine, source, [[0, 1], [1, 2], [0, 2], [2, 3]])
        engine.maybe_inactivate()
        assert not engine.is_complete
        _feed_system(engine, source, [[0, 1, 2]])
        engine.maybe_inactivate()
        assert engine.is_complete
        assert np.array_equal(engine.source_data(), source)


def test_finisher_solves_batch_entered_system():
    """The stalled system arriving as one add_equations batch decodes too."""
    source = make_source(4, 8, seed=5)
    rows = _STALLED_FULL_RANK
    indptr = np.cumsum([0] + [len(r) for r in rows]).astype(np.int64)
    flat = np.concatenate([np.asarray(r, dtype=np.int64) for r in rows])
    rhs = np.stack([_xor_rows(source, r) for r in rows])
    engine = PeelingEngine(4, payload_size=8, inactivation_limit=4)
    engine.add_equations(indptr, flat, rhs)
    engine.maybe_inactivate()
    assert engine.is_complete
    assert np.array_equal(engine.source_data(), source)


def test_finisher_respects_inactivation_limit():
    """With the fallback disabled the stalled system must stay stalled."""
    source = make_source(4, 8, seed=5)
    engine = PeelingEngine(4, payload_size=8, inactivation_limit=0)
    _feed_system(engine, source, _STALLED_FULL_RANK)
    engine.maybe_inactivate()
    assert not engine.is_complete


# -- duplicate droplets are the decoder's to drop ------------------------------

@pytest.mark.parametrize("spec", ["lt", "raptor", "tornado-a", "rs"])
def test_duplicate_ids_never_change_decoder_state(spec):
    """Repeats cost a membership test, not an equation.

    The client keeps no id set of its own: every id is delivered three
    times (mirrored-server style) straight into the decoder, which must
    end in exactly the state single delivery leaves it in — through
    both the scalar and the batched receive paths.
    """
    k = 24
    source = make_source(k, 16, seed=2)
    code = build_code(spec, k, seed=2)
    count = 4 * k if code.n is None else code.n
    encoded = (code.encode(source, count) if code.n is None
               else code.encode(source))

    def decoder_state(client):
        decoder = client.decoder
        return (decoder.packets_added, decoder.is_complete,
                decoder.min_additional_packets,
                getattr(decoder, "_equations_seen", None),
                getattr(decoder, "redundant_droplets", None))

    once = FountainClient(code, payload_size=16)
    scalar = FountainClient(code, payload_size=16)
    for index in range(count):
        once.receive_index(index, encoded[index])
        for _ in range(3):
            scalar.receive_index(index, encoded[index])
        assert decoder_state(scalar) == decoder_state(once)
        if once.is_complete:
            break
    assert scalar.is_complete
    distinct = once.distinct_received
    assert scalar.distinct_received == distinct
    assert scalar.total_received == 3 * (distinct - 1) + 1
    assert scalar.decoder.duplicates_seen == 2 * (distinct - 1)
    assert once.decoder.duplicates_seen == 0

    batched = FountainClient(code, payload_size=16)
    ids = np.repeat(np.arange(count), 3)
    batched.receive_many(ids, encoded[ids])
    assert decoder_state(batched)[:4] == decoder_state(once)[:4]
    assert batched.total_received == scalar.total_received
    assert np.array_equal(batched.source_data(), source)
    assert np.array_equal(scalar.source_data(), source)


# -- one droplet decoder: LT and Raptor share intake and counters ------------

def test_raptor_decoder_inherits_the_lt_intake():
    """Intake, dedup, counters and the rank bound are written once.

    ``benchmarks/e2e`` patches ``add_packet`` / ``add_packets`` on the
    class whose namespace holds them, so they must stay on ``LTDecoder``
    itself for the ``codes.decode.intake`` span to survive.
    """
    for name in ("add_packet", "add_packets", "_add_packets_batch",
                 "min_additional_packets", "packets_added",
                 "duplicates_seen", "redundant_droplets"):
        assert name in vars(LTDecoder)
        assert name not in vars(RaptorDecoder)
    assert issubclass(RaptorDecoder, LTDecoder)


def _droplet_stream(k, seed):
    """2k shuffled ids out of 3k, with k/4 repeats sprinkled in late."""
    if seed == "sys":
        # Loss-free systematic prefix, repair ids after completion,
        # then repeats of the first ten.
        return np.concatenate([np.arange(k), np.arange(k, k + 20),
                               np.arange(10)])
    rng = np.random.default_rng(1000 + seed)
    ids = rng.permutation(3 * k)[:2 * k]
    repeats = rng.choice(ids[:k], size=k // 4, replace=False)
    where = np.sort(rng.choice(np.arange(k // 2, 2 * k), size=repeats.size,
                               replace=False))
    return np.insert(ids, where, repeats)


#: (backend, spec, seed, feeding) -> (packets fed when complete,
#: inactivation runs, final (packets_added, duplicates_seen,
#: redundant_droplets, min_additional_packets), crc32 of the repr of the
#: whole per-call trajectory of that 4-tuple) — recorded at the parent
#: commit, where the two decoders were separate classes.
_PINNED = {
    ("reference", "lt", 1, "bulk"): (64, 0, (80, 10, 36, 0), 0x6B54B509),
    ("reference", "lt", 1, "single"): (51, 4, (80, 10, 38, 0), 0xA04818D5),
    ("reference", "lt", 1, "small"): (51, 2, (80, 10, 38, 0), 0x0708EA85),
    ("reference", "lt", 2, "bulk"): (64, 0, (80, 10, 27, 0), 0x1AAD2973),
    ("reference", "lt", 2, "single"): (47, 4, (80, 10, 37, 0), 0x6D8B064E),
    ("reference", "lt", 2, "small"): (48, 3, (80, 10, 37, 0), 0xF7AD2B12),
    ("reference", "raptor", 1, "bulk"): (64, 1, (80, 10, 24, 0), 0x4D64F2B7),
    ("reference", "raptor", 1, "single"): (48, 4, (80, 10, 37, 0), 0xE965DCC3),
    ("reference", "raptor", 1, "small"): (48, 2, (80, 10, 37, 0), 0xC8992501),
    ("reference", "raptor", 2, "bulk"): (64, 1, (80, 10, 24, 0), 0xEADC62E0),
    ("reference", "raptor", 2, "single"): (44, 2, (80, 10, 39, 0), 0x6A1AAA13),
    ("reference", "raptor", 2, "small"): (45, 2, (80, 10, 39, 0), 0xD23A909D),
    ("reference", "raptor", "sys", "bulk"): (64, 0, (60, 10, 21, 0), 0xD42D9AC0),
    ("reference", "raptor", "sys", "single"): (40, 0, (60, 10, 0, 0), 0xC4223CC9),
    ("reference", "raptor", "sys", "small"): (42, 0, (60, 10, 21, 0), 0x368BE624),
    ("vectorized", "lt", 1, "bulk"): (64, 1, (80, 10, 24, 0), 0x4D64F2B7),
    ("vectorized", "lt", 1, "single"): (51, 5, (80, 10, 35, 0), 0x0412FFFF),
    ("vectorized", "lt", 1, "small"): (51, 3, (80, 10, 35, 0), 0x4C9F0256),
    ("vectorized", "lt", 2, "bulk"): (64, 1, (80, 10, 24, 0), 0xEADC62E0),
    ("vectorized", "lt", 2, "single"): (47, 4, (80, 10, 37, 0), 0x6D8B064E),
    ("vectorized", "lt", 2, "small"): (48, 3, (80, 10, 36, 0), 0x4C083C48),
    ("vectorized", "raptor", 1, "bulk"): (64, 1, (80, 10, 24, 0), 0x4D64F2B7),
    ("vectorized", "raptor", 1, "single"): (48, 4, (80, 10, 37, 0), 0xE965DCC3),
    ("vectorized", "raptor", 1, "small"): (48, 2, (80, 10, 37, 0), 0xC8992501),
    ("vectorized", "raptor", 2, "bulk"): (64, 1, (80, 10, 24, 0), 0xEADC62E0),
    ("vectorized", "raptor", 2, "single"): (44, 2, (80, 10, 39, 0), 0x6A1AAA13),
    ("vectorized", "raptor", 2, "small"): (45, 2, (80, 10, 39, 0), 0xD23A909D),
    ("vectorized", "raptor", "sys", "bulk"): (64, 0, (60, 10, 28, 0), 0x68E862FA),
    ("vectorized", "raptor", "sys", "single"): (40, 0, (60, 10, 0, 0), 0xC4223CC9),
    ("vectorized", "raptor", "sys", "small"): (42, 0, (60, 10, 21, 0), 0x368BE624),
}
_STEP = {"single": 1, "small": 3, "bulk": 32}


@pytest.mark.parametrize("key", sorted(_PINNED, key=repr), ids=lambda key:
                         "-".join(str(part) for part in key))
def test_droplet_decoder_counter_trajectories_are_pinned(key):
    backend, spec, seed, feeding = key
    k, payload_size = 40, 8
    code_seed = 5 if seed == "sys" else seed
    with use_backend(backend):
        code = build_code(spec, k, seed=code_seed)
        source = np.random.default_rng(code_seed).integers(
            0, 256, size=(k, payload_size), dtype=np.uint8)
        encoder = code.encoder(source)
        decoder = code.new_decoder(payload_size)
        ids = _droplet_stream(k, seed)
        trajectory, complete_at = [], None
        for lo in range(0, len(ids), _STEP[feeding]):
            chunk = [int(i) for i in ids[lo:lo + _STEP[feeding]]]
            payloads = np.stack([encoder.droplet_payload(i) for i in chunk])
            if feeding == "single":
                decoder.add_packet(chunk[0], payloads[0])
            else:
                decoder.add_packets(chunk, payloads)
            trajectory.append((decoder.packets_added,
                               decoder.duplicates_seen,
                               decoder.redundant_droplets,
                               int(decoder.min_additional_packets)))
            if complete_at is None and decoder.is_complete:
                complete_at = lo + len(chunk)
        assert np.array_equal(decoder.source_data(), source)
    assert (complete_at, decoder.inactivation_runs, trajectory[-1],
            zlib.crc32(repr(trajectory).encode())) == _PINNED[key]


# -- deferred systematic intake vs the eager oracle --------------------------

_K = 40


def _arrivals(kind, seed):
    """Droplet-id arrival orders that stress when rows are held/released."""
    rng = np.random.default_rng(seed)
    k = _K
    if kind == "systematic-first":      # lossy source prefix, then repairs
        survivors = np.arange(k)[rng.random(k) > 0.3 * rng.random()]
        return np.concatenate([survivors, np.arange(k, 3 * k)])
    if kind == "repair-first":
        return np.concatenate([np.arange(k, 2 * k), np.arange(k)])
    if kind == "interleaved":
        return rng.permutation(3 * k)[:2 * k + 5]
    if kind == "duplicates":
        base = rng.permutation(3 * k)[:2 * k]
        return np.insert(base, rng.integers(1, base.size, size=6), base[:6])
    assert kind == "after-completion"   # clean block, late repairs, repeats
    return np.concatenate([np.arange(k), np.arange(k, k + 12), np.arange(5)])


def _state(decoder):
    return (decoder.is_complete, decoder.packets_added,
            decoder.duplicates_seen, decoder.redundant_droplets,
            int(decoder.min_additional_packets), decoder.inactivation_runs)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["systematic-first", "repair-first",
                             "interleaved", "duplicates",
                             "after-completion"]),
       seed=st.integers(0, 2 ** 16),
       step=st.sampled_from([1, 3, 32]),
       backend=st.sampled_from(["vectorized", "reference"]),
       payload=st.booleans())
def test_deferred_intake_matches_eager_oracle(kind, seed, step, backend,
                                              payload):
    """Same completing packet, bytes, finisher runs, counters and
    ``min_additional_packets`` after every single call."""
    size = 8 if payload else None
    with use_backend(backend):
        code = build_code("raptor", _K, seed=seed % 50)
        source = make_source(_K, 8, seed)
        encoder = code.encoder(source)
        deferred = code.new_decoder(size)
        eager = eager_raptor_decoder(code.geometry, size)
        order = _arrivals(kind, seed)
        for lo in range(0, order.size, step):
            chunk = [int(i) for i in order[lo:lo + step]]
            payloads = (np.stack([encoder.droplet_payload(i) for i in chunk])
                        if payload else None)
            for decoder in (deferred, eager):
                if step == 1:
                    decoder.add_packet(
                        chunk[0], None if payloads is None else payloads[0])
                else:
                    decoder.add_packets(chunk, payloads)
            assert _state(deferred) == _state(eager), (lo, chunk)
            assert eager.held_rows == 0
            assert (deferred._equations_seen + deferred.held_rows
                    == eager._equations_seen)
        if payload and deferred.is_complete:
            assert np.array_equal(deferred.source_data(), source)
            assert np.array_equal(eager.source_data(), source)


@pytest.mark.parametrize("backend", ["vectorized", "reference"])
@pytest.mark.parametrize("step", [1, 3, 32])
def test_clean_systematic_block_builds_no_droplet_equation(backend, step):
    """``k`` loss-free source packets: the engine holds the precode rows
    and nothing else, and the block completes out of the bank."""
    with use_backend(backend):
        code = build_code("raptor", _K, seed=4)
        source = make_source(_K, 16, seed=4)
        decoder = code.new_decoder(16)
        precode_rows = decoder._equations_seen
        assert precode_rows == (decoder.geometry.intermediate_count - _K)
        assert decoder.min_additional_packets == _K
        for lo in range(0, _K, step):
            ids = list(range(lo, min(lo + step, _K)))
            if step == 1:
                decoder.add_packet(ids[0], source[ids[0]])
            else:
                decoder.add_packets(ids, source[ids])
            assert decoder.min_additional_packets == _K - ids[-1] - 1
        assert decoder.is_complete
        assert decoder._equations_seen == precode_rows
        assert decoder.equation_count == precode_rows
        assert decoder.inactivation_runs == 0
        assert "held_rows=" in repr(decoder)
        assert np.array_equal(decoder.source_data(), source)


@pytest.mark.parametrize("backend", ["vectorized", "reference"])
@pytest.mark.parametrize("payload", [True, False])
def test_first_repair_releases_held_rows_as_one_batch(backend, payload,
                                                      monkeypatch):
    """``s`` systematic droplets then a repair: exactly one
    ``add_equations`` call, of ``s + 1`` rows, held rows first."""
    held_ids = [3, 0, 17, 9, 30, 31, 32, 5, 21, 11]
    with use_backend(backend):
        code = build_code("raptor", _K, seed=4)
        source = make_source(_K, 16, seed=4)
        encoder = code.encoder(source)
        decoder = code.new_decoder(16 if payload else None)
        calls = []
        intake = decoder.add_equations

        def spy(indptr, participants, rhs=None):
            calls.append((len(indptr) - 1, None if rhs is None
                          else np.array(rhs)))
            return intake(indptr, participants, rhs)

        monkeypatch.setattr(decoder, "add_equations", spy)
        decoder.add_packets(held_ids[:8], source[held_ids[:8]]
                            if payload else None)
        decoder.add_packet(held_ids[8], source[held_ids[8]]
                           if payload else None)
        decoder.add_packet(held_ids[9], source[held_ids[9]]
                           if payload else None)
        assert decoder.held_rows == 10 and not calls
        repair = _K + 6
        decoder.add_packet(repair, encoder.droplet_payload(repair)
                           if payload else None)
        assert decoder.held_rows == 0
        assert [rows for rows, _ in calls] == [11]
        seen = decoder._equations_seen
        if payload:
            assert np.array_equal(calls[0][1][:10], source[held_ids])
            assert np.array_equal(calls[0][1][10],
                                  encoder.droplet_payload(repair))
        # from here on every droplet enters on arrival
        decoder.add_packet(1, source[1] if payload else None)
        assert decoder.held_rows == 0
        assert decoder._equations_seen == seen + 1
