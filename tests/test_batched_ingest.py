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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import api
from repro.codes.lt.decoder import LTDecoder
from repro.codes.peeling import PeelingEngine
from repro.codes.raptor.decoder import RaptorDecoder
from repro.codes.registry import (
    available_codes,
    build_code,
    feed,
    incremental_decoder,
)
from repro.errors import ParameterError

from tests._oracles import (
    eager_lt_decoder,
    eager_raptor_decoder,
    eager_tornado_decoder,
    make_source,
    reference_golden,
    roundtrip_key,
    run_roundtrip,
    sha256,
)
from tests._routes import DECODE_ROUTES, decode_route

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
    """Batched intake recovers the exact bytes of one-at-a-time feeding.

    The one-at-a-time trajectory is the reference paths' recording
    (``tests/golden/reference_trajectories.json``), and the shipped
    decoder fed one packet per call must reproduce it.  Fed through
    ``add_packets`` in chunks, every batch size reaches the same outcome
    and bytes, and overshoots the sequential completion point by no
    more than the slack inside its final chunk.
    """
    sequential = reference_golden()["roundtrips"][
        roundtrip_key(spec, k, 24, seed)]
    assert run_roundtrip(spec, k, 24, seed).digest() == sequential
    for batch_size in (1, 3, 17, 256):
        batched = run_roundtrip(spec, k, 24, seed,
                                batch_size=batch_size).digest()
        label = f"{spec} k={k} seed={seed} batch={batch_size}"
        assert batched["encoded"] == sequential["encoded"], label
        assert batched["complete"] == sequential["complete"], label
        assert batched["recovered"] == sequential["recovered"], label
        if sequential["complete"]:
            fed = sequential["packets_fed"]
            assert fed <= batched["packets_fed"] <= fed + batch_size - 1, \
                label
    if sequential["complete"]:
        assert sequential["recovered"] == sha256(
            make_source(k, 24, seed).tobytes())


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


def test_finisher_solves_fully_stalled_system(route):
    source = make_source(4, 8, seed=5)
    engine = PeelingEngine(4, payload_size=8, inactivation_limit=4)
    _feed_system(engine, source, _STALLED_FULL_RANK)
    assert not engine.is_complete  # no ripple ever started
    engine.maybe_inactivate()
    assert engine.is_complete
    assert np.array_equal(engine.source_data(), source)


def test_finisher_failed_attempt_then_closing_row(route):
    """A singular stall records its deficit; the closing row finishes it.

    ``{0,1},{1,2},{0,2}`` is a dependent cycle (rank 2), ``{2,3}``
    brings rank 3 of 4 — the attempt must fail without recovering
    anything, and the odd-weight row ``{0,1,2}`` (independent of the
    all-even span) must complete the decode on arrival.
    """
    source = make_source(4, 8, seed=9)
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

    No receiver keeps an id set of its own: every id is delivered three
    times (mirrored-server style) straight into the decoder, which must
    end in exactly the state single delivery leaves it in — fed one
    packet per ``feed`` call and as one batch.
    """
    k = 24
    source = make_source(k, 16, seed=2)
    code = build_code(spec, k, seed=2)
    count = 4 * k if code.n is None else code.n
    encoded = (code.encode(source, count) if code.n is None
               else code.encode(source))

    def decoder_state(decoder):
        return (decoder.packets_added, decoder.is_complete,
                decoder.min_additional_packets,
                getattr(decoder, "_equations_seen", None),
                getattr(decoder, "redundant_droplets", None))

    once = incremental_decoder(code, payload_size=16)
    scalar = incremental_decoder(code, payload_size=16)
    scalar_total = 0
    for index in range(count):
        feed(once, (index,), encoded[index][np.newaxis])
        for _ in range(3):
            scalar_total += feed(scalar, (index,), encoded[index][np.newaxis])
        assert decoder_state(scalar) == decoder_state(once)
        if once.is_complete:
            break
    assert scalar.is_complete
    distinct = once.packets_added
    assert scalar.packets_added == distinct
    assert scalar_total == 3 * (distinct - 1) + 1
    assert scalar.duplicates_seen == 2 * (distinct - 1)
    assert once.duplicates_seen == 0

    batched = incremental_decoder(code, payload_size=16)
    ids = np.repeat(np.arange(count), 3)
    assert feed(batched, ids, encoded[ids]) == scalar_total
    assert decoder_state(batched)[:4] == decoder_state(once)[:4]
    assert np.array_equal(batched.source_data(), source)
    assert np.array_equal(scalar.source_data(), source)


# -- one droplet decoder: LT and Raptor share intake and counters ------------

def test_raptor_decoder_inherits_the_lt_intake():
    """Intake, dedup, counters and the rank bound are written once.

    ``benchmarks/e2e`` patches ``add_packet`` / ``add_packets`` on the
    class whose namespace holds them, so they must stay on ``LTDecoder``
    itself for the ``codes.decode.intake`` span to survive.
    """
    for name in ("add_packet", "add_packets",
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


#: (route, spec, seed, feeding) -> (packets fed when complete,
#: inactivation runs, final (packets_added, duplicates_seen,
#: redundant_droplets, min_additional_packets), crc32 of the repr of the
#: whole per-call trajectory of that 4-tuple) — recorded at the parent
#: commit, where the two decoders were separate classes.  The three
#: ``"sys"`` rows whose redundancy reads as its batch-path twin's were
#: re-recorded when one intake body replaced the scalar one: a droplet
#: that finds (or makes) the block complete is redundant at any size.
#: The ``per-row`` rows are the scalar reference decoder's, which took
#: that route: five of them differ from their ``batched`` twin.
_PINNED = {
    ("per-row", "lt", 1, "bulk"): (64, 0, (80, 10, 36, 0), 0x6B54B509),
    ("per-row", "lt", 1, "single"): (51, 4, (80, 10, 38, 0), 0xA04818D5),
    ("per-row", "lt", 1, "small"): (51, 2, (80, 10, 38, 0), 0x0708EA85),
    ("per-row", "lt", 2, "bulk"): (64, 0, (80, 10, 27, 0), 0x1AAD2973),
    ("per-row", "lt", 2, "single"): (47, 4, (80, 10, 37, 0), 0x6D8B064E),
    ("per-row", "lt", 2, "small"): (48, 3, (80, 10, 37, 0), 0xF7AD2B12),
    ("per-row", "raptor", 1, "bulk"): (64, 1, (80, 10, 24, 0), 0x4D64F2B7),
    ("per-row", "raptor", 1, "single"): (48, 4, (80, 10, 37, 0), 0xE965DCC3),
    ("per-row", "raptor", 1, "small"): (48, 2, (80, 10, 37, 0), 0xC8992501),
    ("per-row", "raptor", 2, "bulk"): (64, 1, (80, 10, 24, 0), 0xEADC62E0),
    ("per-row", "raptor", 2, "single"): (44, 2, (80, 10, 39, 0), 0x6A1AAA13),
    ("per-row", "raptor", 2, "small"): (45, 2, (80, 10, 39, 0), 0xD23A909D),
    ("per-row", "raptor", "sys", "bulk"): (64, 0, (60, 10, 28, 0), 0x68E862FA),
    ("per-row", "raptor", "sys", "single"): (40, 0, (60, 10, 21, 0), 0x8F3A3A5A),
    ("per-row", "raptor", "sys", "small"): (42, 0, (60, 10, 21, 0), 0x368BE624),
    ("batched", "lt", 1, "bulk"): (64, 1, (80, 10, 24, 0), 0x4D64F2B7),
    ("batched", "lt", 1, "single"): (51, 5, (80, 10, 35, 0), 0x0412FFFF),
    ("batched", "lt", 1, "small"): (51, 3, (80, 10, 35, 0), 0x4C9F0256),
    ("batched", "lt", 2, "bulk"): (64, 1, (80, 10, 24, 0), 0xEADC62E0),
    ("batched", "lt", 2, "single"): (47, 4, (80, 10, 37, 0), 0x6D8B064E),
    ("batched", "lt", 2, "small"): (48, 3, (80, 10, 36, 0), 0x4C083C48),
    ("batched", "raptor", 1, "bulk"): (64, 1, (80, 10, 24, 0), 0x4D64F2B7),
    ("batched", "raptor", 1, "single"): (48, 4, (80, 10, 37, 0), 0xE965DCC3),
    ("batched", "raptor", 1, "small"): (48, 2, (80, 10, 37, 0), 0xC8992501),
    ("batched", "raptor", 2, "bulk"): (64, 1, (80, 10, 24, 0), 0xEADC62E0),
    ("batched", "raptor", 2, "single"): (44, 2, (80, 10, 39, 0), 0x6A1AAA13),
    ("batched", "raptor", 2, "small"): (45, 2, (80, 10, 39, 0), 0xD23A909D),
    ("batched", "raptor", "sys", "bulk"): (64, 0, (60, 10, 28, 0), 0x68E862FA),
    ("batched", "raptor", "sys", "single"): (40, 0, (60, 10, 21, 0), 0x8F3A3A5A),
    ("batched", "raptor", "sys", "small"): (42, 0, (60, 10, 21, 0), 0x368BE624),
}
_STEP = {"single": 1, "small": 3, "bulk": 32}


@pytest.mark.parametrize("key", sorted(_PINNED, key=repr), ids=lambda key:
                         "-".join(str(part) for part in key))
def test_droplet_decoder_counter_trajectories_are_pinned(key):
    route, spec, seed, feeding = key
    k, payload_size = 40, 8
    code_seed = 5 if seed == "sys" else seed
    with decode_route(route):
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


# -- held intake vs the eager oracles -----------------------------------------

_K = 40

_KINDS = ["systematic-first", "repair-first", "interleaved", "duplicates",
          "after-completion", "cap-first", "source-first",
          "exactly-k-then-one"]


def _arrivals(kind, seed, k=_K, n=None):
    """Packet-id arrival orders that stress when rows are held/released.

    ``n`` is the encoding length of a fixed-rate code (ids stay below
    it); ``None`` draws from a rateless id space of ``3k``.
    """
    rng = np.random.default_rng(seed)
    span = 3 * k if n is None else n
    if kind == "systematic-first":      # lossy source prefix, then repairs
        survivors = np.arange(k)[rng.random(k) > 0.3 * rng.random()]
        return np.concatenate([survivors, np.arange(k, span)])
    if kind == "repair-first":
        return np.concatenate([np.arange(k, min(2 * k, span)), np.arange(k)])
    if kind == "interleaved":
        return rng.permutation(span)[:2 * k + 5]
    if kind == "duplicates":
        base = rng.permutation(span)[:2 * k]
        return np.insert(base, rng.integers(1, base.size, size=6), base[:6])
    if kind == "after-completion":      # clean block, late repairs, repeats
        return np.concatenate([np.arange(k), np.arange(k, k + 12),
                               np.arange(5)])
    if kind == "cap-first":             # the top of the id space, downwards
        return np.arange(span)[::-1]
    if kind == "source-first":          # a lossy block in id order
        return np.arange(span)[rng.random(span) > 0.25]
    assert kind == "exactly-k-then-one"  # k random ids, then one at a time
    return rng.permutation(span)[:k + 12]


def _state(decoder):
    return (decoder.is_complete, decoder.packets_added,
            decoder.duplicates_seen, getattr(decoder, "redundant_droplets", 0),
            int(decoder.min_additional_packets))


#: smallest round k whose Tornado cascade has a graph layer under the
#: cap (below it the code is the cap's Reed-Solomon code alone).
_K_CASCADE = 200

#: a k whose cascade has three graph layers under the cap.
_K_THREE_LAYERS = 1024

#: what a stalled Tornado tail is fed, in turn (see :func:`_stalled_tail`).
_TAIL_KINDS = ["unknown", "recovered", "spent", "duplicate"]


def _stalled_tail(seed, step, structure, decoder, seen):
    """Chunks for a Tornado block whose tail stalls: a shuffled stream
    until the hold is over and the cap is solved, then — decided by the
    decoder's state call by call, because that is where the finisher
    keeps a factorization between attempts — one packet kind
    after another: a node nothing has recovered, a node peeling already
    has, cap redundancy the solved cap has no use for, a repeat.
    ``seen[kind]`` counts the tail packets fed while a factorization
    was kept."""
    rng = np.random.default_rng(seed)
    shuffled = rng.permutation(structure.n).tolist()
    turn = 0
    for _ in range(4 * structure.n):
        if decoder.is_complete:
            return
        fresh = ~decoder._received
        if decoder.held_rows or not decoder._cap_solved:
            pool = [i for i in shuffled if fresh[i]]
            yield pool[:step]
            continue
        below = np.arange(structure.n) < structure.cap_offset
        pools = {"unknown": fresh & ~decoder.known & below,
                 "recovered": fresh & decoder.known,
                 "spent": fresh & ~below,
                 "duplicate": ~fresh}
        chunk = []
        for _ in range(step):
            kind = _TAIL_KINDS[turn % len(_TAIL_KINDS)]
            turn += 1
            pool = np.nonzero(pools[kind])[0]
            if not pool.size:
                kind, pool = "unknown", np.nonzero(pools["unknown"])[0]
            chunk.append(int(rng.choice(pool)))
            seen[kind] += decoder._factored is not None
        yield chunk
    raise AssertionError("the stalled tail never completed")


def _held_and_eager(family, seed, size, k=None):
    """The shipped decoder and its eager oracle over one fresh code."""
    if k is None:
        k = _K_CASCADE if family.startswith("tornado") else _K
    code = build_code(family, k, seed=seed % 50)
    if family == "raptor":
        # the engine itself: a structural new_decoder is a rank test
        held = RaptorDecoder(code.geometry, payload_size=size)
        return code, held, eager_raptor_decoder(code.geometry, size)
    held = code.new_decoder(size)
    if family == "lt":
        return code, held, eager_lt_decoder(code.spec, size,
                                            code.inactivation_limit)
    return code, held, eager_tornado_decoder(code.structure, size,
                                             code.inactivation_limit)


def _check_against_eager(family, kind, seed, step, route, payload, probe,
                         k=None):
    """Feed the shipped decoder and its eager oracle, both on ``route``,
    the same calls and compare them after every one; returns the
    stalled tail's tally."""
    size = 8 if payload else None
    seen = dict.fromkeys(_TAIL_KINDS, 0)
    with decode_route(route):
        code, held, eager = _held_and_eager(family, seed, size, k)
        source = make_source(code.k, 8, seed)
        droplets = code.n is None
        if kind == "stalled-tail" and not droplets:
            chunks = _stalled_tail(seed, step, code.structure, held, seen)
            span = code.n
        else:
            # a rateless code has no cap to stall behind: a plain shuffle
            order = _arrivals("interleaved" if kind == "stalled-tail"
                              else kind, seed, code.k, code.n)
            chunks = ([int(i) for i in order[lo:lo + step]]
                      for lo in range(0, order.size, step))
            span = int(order.max()) + 1
        if payload:
            encoded = (code.encode(source, span) if droplets
                       else code.encode(source))
        for call, chunk in enumerate(chunks):
            payloads = encoded[chunk] if payload else None
            for decoder in (held, eager):
                if step == 1:
                    decoder.add_packet(
                        chunk[0], None if payloads is None else payloads[0])
                else:
                    decoder.add_packets(chunk, payloads)
            assert _state(held) == _state(eager), (call, chunk)
            assert (held.inactivation_runs - held.fold_runs
                    <= eager.inactivation_runs - eager.fold_runs)
            assert eager.held_rows == 0
            if droplets:
                assert (held._equations_seen + held.held_rows
                        == eager._equations_seen)
            if call == probe:
                if not droplets and held._defers_peeling():
                    # packets folded into the kept factorization are
                    # recovered by the solve, not on arrival
                    assert (held.source_known_count
                            <= eager.source_known_count)
                    continue
                assert held.source_known_count == eager.source_known_count
                assert np.array_equal(held.missing_source_indices(),
                                      eager.missing_source_indices())
        if payload and held.is_complete:
            assert np.array_equal(held.source_data(), source)
            assert np.array_equal(eager.source_data(), source)
    return seen


@settings(max_examples=120, deadline=None)
@example("tornado-b", "interleaved", 3251, 1, "batched", False, 0)
@example("tornado-b", "repair-first", 14, 1, "batched", False, 0)
@example("tornado-b", "repair-first", 36, 1, "batched", False, 0)
@example("tornado-b", "interleaved", 13, 1, "batched", False, 0)
@example("tornado-b", "duplicates", 13, 1, "batched", False, 0)
@given(family=st.sampled_from(["raptor", "lt", "tornado-a", "tornado-b"]),
       kind=st.sampled_from(_KINDS + ["stalled-tail"]),
       seed=st.integers(0, 2 ** 16),
       step=st.sampled_from([1, 3, 32]),
       route=st.sampled_from(DECODE_ROUTES),
       payload=st.booleans(),
       probe=st.integers(0, 60))
def test_deferred_intake_matches_eager_oracle(family, kind, seed, step,
                                              route, payload, probe):
    """Same completing packet, bytes, counters and
    ``min_additional_packets`` after every single call, never more
    factorizations — and a read of partial state mid-hold (after call
    number ``probe``) answers what eager intake would.

    The finisher invariant is ``inactivation_runs - fold_runs``, held
    against eager: how often the stalled system was factored from
    scratch.  Attempts as such are not comparable once a Tornado tail
    folds into the kept factorization.  Both decoders pass the same
    stall gate, but the gate ticks per event and the two see different
    events: a packet for a node eager peeling has already recovered
    never reaches the eager engine, while behind a kept factorization
    that node is still an unknown, so the packet is one more (redundant)
    degree-one row and, at deficit one, one more attempt; and eager
    peeling can finish a block in a cascade where the folded system is
    retried on every arrival.  Each such retry is one ``fold_row``, not
    a ``factor_gf2`` — the pinned examples below (found by fuzzing: 6
    attempts against 5 at call 206 of the first, 23 against 12 by its
    completion) each factor once where eager factors on every attempt.
    """
    _check_against_eager(family, kind, seed, step, route, payload, probe)


@pytest.mark.parametrize("payload", [True, False])
@pytest.mark.parametrize("k", [_K_CASCADE, _K_THREE_LAYERS])
def test_tail_arrivals_fold_into_the_kept_factorization(k, payload, route):
    """Every kind of packet a stalled Tornado tail can see — a node
    nothing has recovered, one peeling already has, spent cap
    redundancy, a repeat — lands while the finisher keeps a
    factorization, one at a time and in batches, and the decoder still
    answers call for call what its eager oracle does, with never more
    factorizations (folds counted apart: see
    ``test_deferred_intake_matches_eager_oracle``)."""
    assert len(build_code("tornado-b", k, seed=0).structure.graphs) == (
        3 if k == _K_THREE_LAYERS else 1)
    seen = dict.fromkeys(_TAIL_KINDS, 0)
    for seed, step in ((0, 1), (1, 1), (2, 3), (3, 32)):
        tally = _check_against_eager("tornado-b", "stalled-tail", seed, step,
                                     route, payload, probe=-1, k=k)
        for kind in seen:
            seen[kind] += tally[kind]
    assert all(seen.values())


def _short_core(decoder):
    """True when the decoder keeps a factorization of a system that had
    fewer rows than unknowns when it was factored (rows folded since
    are the banked tail)."""
    fact = decoder._factored
    return fact is not None and (fact.num_rows - len(decoder._tail)
                                 < len(fact.pivots) + len(fact.inactive))


@pytest.mark.parametrize("payload", [True, False])
@pytest.mark.parametrize("family", ["tornado-a", "tornado-b"])
def test_a_short_stalled_tail_keeps_one_core(family, payload, route,
                                             monkeypatch):
    """Once the cap is solved, a stalled Tornado B block keeps one
    factorization of its residual system even with fewer rows than
    unknowns, and banks every later packet behind it as one folded
    unit row: nothing is observed and nothing refactored until the
    packet that brings the deficit to zero, which may sit mid-batch.
    Call for call it answers what eager intake does, completes on the
    same packet with the same bytes, and never factors from scratch
    more often.  Tornado A (pure peeling, which does not complete at
    full rank) never keeps a core."""
    from repro.codes.peeling import GF2Factorization

    folds = []
    fold_row = GF2Factorization.fold_row
    monkeypatch.setattr(GF2Factorization, "fold_row",
                        lambda self, cols: folds.append(1)
                        or fold_row(self, cols))
    size = 8 if payload else None
    short = mid_batch = 0
    for seed, step in ((0, 1), (1, 1), (2, 5), (3, 32), (4, 7), (5, 16)):
        code, held, eager = _held_and_eager(family, seed, size)
        source = make_source(code.k, 8, seed)
        encoded = code.encode(source) if payload else None
        order = np.random.default_rng(seed).permutation(code.n).tolist()
        for lo in range(0, code.n, step):
            chunk = order[lo:lo + step]
            rows = encoded[chunk] if payload else None
            fresh = ~(held._received[chunk] | held.known[chunk])
            banked = held._factored is not None and held._cap_solved
            del folds[:]
            for decoder in (held, eager):
                decoder.add_packets(chunk, rows)
            assert _state(held) == _state(eager), (seed, lo)
            assert (held.inactivation_runs - held.fold_runs
                    <= eager.inactivation_runs - eager.fold_runs)
            if family == "tornado-a":
                assert held._factored is None and not folds
                assert held.inactivation_runs == 0
            short += _short_core(held)
            if banked and held.is_complete:
                mid_batch += len(folds) < int(np.count_nonzero(
                    fresh & (np.asarray(chunk) < code.structure.cap_offset)))
            if held.is_complete:
                break
        assert held.is_complete and eager.is_complete
        if payload:
            assert np.array_equal(held.source_data(), source)
            assert np.array_equal(eager.source_data(), source)
    if family == "tornado-b":
        assert short, "no tail stalled short of rows behind a solved cap"
        assert mid_batch, "no batch completed on a packet before its last"


@pytest.mark.parametrize("family", ["lt", "raptor", "tornado-b"])
def test_hold_ends_on_the_packet_that_squares_the_system(family, route):
    """One packet at a time: nothing enters the engine while the block
    provably cannot complete, everything does on the arrival after which
    it could, and rows enter as they come from then on.  A droplet
    decoder on adjacency dicts (the per-row route) peels eagerly and
    never holds."""
    k = _K if family != "tornado-b" else _K_CASCADE
    code = build_code(family, k, seed=3)
    decoder = (RaptorDecoder(code.geometry) if family == "raptor"
               else code.new_decoder(None))
    droplets = code.n is None
    holds = not droplets or decoder._lazy_peel
    assert holds == (not droplets or route == "batched")
    ids = (np.arange(k, 4 * k) if droplets
           else np.random.default_rng(3).permutation(code.n))
    before = decoder._equations_seen
    square = decoder.min_additional_packets
    assert square == k
    for fed, index in enumerate(ids.tolist(), start=1):
        decoder.add_packet(index)
        if not holds:
            assert decoder.held_rows == 0
        elif fed < square:
            assert decoder.held_rows == fed
            assert decoder._equations_seen == before
            assert not decoder.known.any()
            assert f"held_rows={fed}" in repr(decoder)
        else:
            assert decoder.held_rows == 0
            if droplets:
                assert decoder._equations_seen == before + fed
        if decoder.is_complete:
            break
    assert decoder.is_complete and decoder.held_rows == 0


# -- a spent cap packet costs no re-factorization -----------------------------

@pytest.mark.parametrize("payload", [True, False])
def test_cap_redundancy_after_the_cap_is_solved_skips_the_engine(payload,
                                                                 route):
    """Cap redundancy arriving after ``_cap_solved`` is in no XOR
    equation: it is counted and nothing else — the engine is not called
    and the finisher keeps its factorization."""
    size = 8 if payload else None
    spent_seen = kept_seen = 0
    for seed in range(4):
        code = build_code("tornado-b", _K_CASCADE, seed=seed)
        st_ = code.structure
        source = make_source(code.k, 8, seed)
        encoded = code.encode(source)
        decoder = code.new_decoder(size)
        eager = eager_tornado_decoder(st_, size, code.inactivation_limit)
        rng = np.random.default_rng(seed)
        # the whole last layer (it solves the cap on release), then
        # the layers under it, shuffled, with the cap's redundancy
        # sprinkled through
        body = rng.permutation(st_.last_layer_offset)
        cap = np.arange(st_.cap_offset, st_.n)
        where = np.sort(rng.integers(0, body.size, size=cap.size))
        order = np.concatenate([
            np.arange(st_.last_layer_offset, st_.cap_offset),
            np.insert(body, where, cap)])
        for index in order.tolist():
            row = encoded[index] if payload else None
            spent = decoder._cap_solved and index >= st_.cap_offset
            runs, factored = decoder.inactivation_runs, decoder._factored
            for d in (decoder, eager):
                d.add_packet(index, row)
            if spent:
                spent_seen += 1
                kept_seen += factored is not None
                assert decoder.inactivation_runs == runs
                assert decoder._factored is factored
                assert not decoder.known[index]
            assert _state(decoder) == _state(eager)
            assert decoder.inactivation_runs <= eager.inactivation_runs
            if eager.is_complete:
                break
        assert decoder.is_complete
        if payload:
            assert np.array_equal(decoder.source_data(), source)
            assert np.array_equal(eager.source_data(), source)
    assert spent_seen
    assert kept_seen


# -- typed intake: a payload of the wrong width moves no state ----------------

@pytest.mark.parametrize("batch", [False, True], ids=["scalar", "batch"])
@pytest.mark.parametrize("width", [1, 63, 65])
@pytest.mark.parametrize("family", ["tornado-a", "tornado-b", "lt", "raptor"])
def test_wrong_width_payload_is_refused_before_any_state_moves(
        family, width, batch, route):
    """One symbol would broadcast across the row, any other wrong width
    used to surface as numpy's ``ValueError`` with the packet already
    counted: both are a ``ParameterError`` now, worded as
    ``SetDecoder`` words it, and the decoder is as it was — mid-hold
    and after it."""
    code = build_code(family, _K_CASCADE, seed=2)
    source = make_source(code.k, 64, 2)
    encoded = (code.encode(source, 3 * code.k) if code.n is None
               else code.encode(source))
    decoder = code.new_decoder(64)
    fed = 0
    for stage in (0, code.k // 2, code.k + 4):
        ids = list(range(fed, stage))
        decoder.add_packets(ids, encoded[ids])
        fed = stage
        before = (_state(decoder), decoder.held_rows,
                  decoder._equations_seen, decoder.known.copy())
        bad = np.full((2, width), 7, dtype=np.uint8)
        with pytest.raises(ParameterError, match=(
                f"payload carries {width} symbols, decoder expects 64")):
            if batch:
                decoder.add_packets([fed, fed + 1], bad)
            else:
                decoder.add_packet(fed, bad[0])
        after = (_state(decoder), decoder.held_rows,
                 decoder._equations_seen, decoder.known)
        assert before[:3] == after[:3]
        assert np.array_equal(before[3], after[3])
    rest = list(range(fed, encoded.shape[0]))
    decoder.add_packets(rest, encoded[rest])
    assert np.array_equal(decoder.source_data(), source)


# -- batch admission: one set test vs the per-id loop -------------------------

@settings(max_examples=60, deadline=None)
@given(batches=st.lists(
    st.lists(st.integers(-1, 40), min_size=8, max_size=24),
    min_size=1, max_size=5))
def test_batch_admission_matches_the_per_id_loop(batches):
    """All-fresh batches take one set difference, everything else the
    loop: fresh ids, their rows, ``duplicates_seen`` and the negative-id
    error are those of ``_admit`` called per id — except that a refused
    batch records none of its ids."""
    spec = build_code("lt", 16, seed=1).spec
    fast, slow = LTDecoder(spec), eager_lt_decoder(spec)
    for batch in batches:
        expect_rows, error = [], None
        before = (set(fast._droplet_ids), fast.duplicates_seen)
        for row, index in enumerate(batch):
            try:
                if slow._admit(index, False):
                    expect_rows.append(row)
            except ParameterError as exc:
                error = exc
                break
        if error is not None:
            with pytest.raises(ParameterError, match=str(error)):
                fast._admit_batch(batch, False)
            assert (fast._droplet_ids, fast.duplicates_seen) == before
            break
        ids, rows = fast._admit_batch(batch, False)
        rows = (list(range(len(batch))) if rows is None
                else rows.tolist())
        assert rows == expect_rows
        assert ids.tolist() == [batch[r] for r in expect_rows]
        assert fast._droplet_ids == slow._droplet_ids
        assert fast.duplicates_seen == slow.duplicates_seen


def test_batch_admission_requires_payloads_like_the_loop():
    spec = build_code("lt", 16, seed=1).spec
    decoder = LTDecoder(spec, payload_size=4)
    with pytest.raises(ParameterError, match="requires droplet payloads"):
        decoder.add_packets(list(range(10)))
    assert decoder.packets_added == 0


# -- one intake: a packet is a batch of one -----------------------------------

_FAMILIES = [family.name for family in available_codes()]


def _intake_state(decoder):
    """:func:`_state` plus what only a native decoder's intake shows."""
    return _state(decoder) + tuple(
        getattr(decoder, name, None)
        for name in ("held_rows", "equation_count", "inactivation_runs"))


def _family_block(family):
    """A code of ``family`` at a size with its full machinery (a graph
    layer under a Tornado cap), an 8-byte source block and its encoded
    rows (``3k`` droplets for a rateless code)."""
    k = _K_CASCADE if family.startswith("tornado") else _K
    code = build_code(family, k, seed=5)
    source = make_source(k, 8, 5)
    encoded = (code.encode(source, 3 * k) if code.n is None
               else code.encode(source))
    return code, source, encoded


@pytest.mark.parametrize("payload", [True, False])
@pytest.mark.parametrize("family", _FAMILIES)
def test_add_packet_is_add_packets_of_one_row(family, route, payload):
    """``add_packet(i, p)`` and ``add_packets([i], p[None])`` leave every
    decoder in the same state after every call — over a loss-free
    source prefix followed by repairs and repeats that arrive after
    completion (for Raptor, the systematic fast path completing out of
    the bank), and over a shuffled stream with repeats."""
    size = 8 if payload else None
    code, source, encoded = _family_block(family)
    k, span = code.k, encoded.shape[0]
    rng = np.random.default_rng(k)
    shuffled = rng.permutation(span)[:2 * k]
    streams = [
        np.concatenate([np.arange(k), np.arange(k, k + 20),
                        np.arange(10)]),
        np.insert(shuffled, rng.integers(1, shuffled.size, size=12),
                  shuffled[:12]),
    ]
    for ids in streams:
        one = incremental_decoder(code, payload_size=size)
        batch = incremental_decoder(code, payload_size=size)
        for call, index in enumerate(ids.tolist()):
            row = encoded[index] if payload else None
            fresh = one.add_packet(index, row)
            assert fresh is (batch.add_packets(
                [index], None if row is None else row[None]) == 1)
            assert _intake_state(one) == _intake_state(batch), (
                call, index)
        if payload and one.is_complete:
            assert np.array_equal(one.source_data(), source)
            assert np.array_equal(batch.source_data(), source)
    assert one.is_complete  # the shuffled stream decodes every code


@pytest.mark.parametrize("family", _FAMILIES)
def test_a_batch_with_an_invalid_id_moves_no_state(family, route):
    """The whole batch is validated before any id is recorded: the
    valid ids in front of a negative one are not swallowed, so feeding
    them again counts them as fresh."""
    code, _, encoded = _family_block(family)
    decoder = incremental_decoder(code, payload_size=8)

    def counters():
        return (decoder.packets_added, decoder.duplicates_seen,
                getattr(decoder, "held_rows", 0),
                decoder.min_additional_packets)

    before = counters()
    ids = list(range(10)) + [-1, 11]
    with pytest.raises(ParameterError):
        decoder.add_packets(ids, encoded[ids])
    assert counters() == before
    assert decoder.add_packets(list(range(10)), encoded[:10]) == 10
    assert decoder.packets_added == 10
    assert decoder.duplicates_seen == 0


@pytest.mark.parametrize("step", [1, 3, 32])
def test_clean_systematic_block_builds_no_droplet_equation(route, step):
    """``k`` loss-free source packets: the engine holds the precode rows
    and nothing else, and the block completes out of the bank."""
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


@pytest.mark.parametrize("payload", [True, False])
def test_first_repair_releases_held_rows_as_one_batch(payload, route,
                                                      monkeypatch):
    """``s`` systematic droplets then repairs: exactly one
    ``add_equations`` call, held rows first, in arrival order — on the
    row that squares the system where the engine does not peel on
    arrival (the batched route's bitmatrix store), on the first repair
    where it does (the per-row route's adjacency dicts)."""
    held_ids = [3, 0, 17, 9, 30, 31, 32, 5, 21, 11]
    code = build_code("raptor", _K, seed=4)
    source = make_source(_K, 16, seed=4)
    encoder = code.encoder(source)
    decoder = RaptorDecoder(code.geometry, 16 if payload else None)
    calls = []
    intake = decoder.add_equations

    def spy(indptr, participants, rhs=None):
        calls.append((len(indptr) - 1, None if rhs is None
                      else np.array(rhs)))
        return intake(indptr, participants, rhs)

    def row(index):
        if not payload:
            return None
        return (source[index] if index < _K
                else encoder.droplet_payload(index))

    monkeypatch.setattr(decoder, "add_equations", spy)
    decoder.add_packets(held_ids[:8], source[held_ids[:8]]
                        if payload else None)
    decoder.add_packet(held_ids[8], row(held_ids[8]))
    decoder.add_packet(held_ids[9], row(held_ids[9]))
    assert decoder.held_rows == 10 and not calls
    entered = held_ids + [_K + 6]
    decoder.add_packet(entered[-1], row(entered[-1]))
    assert decoder._lazy_peel == (route == "batched")
    if decoder._lazy_peel:
        # still short of square: the repair is held with the rest
        while decoder.min_additional_packets > 1:
            assert decoder.held_rows == len(entered) and not calls
            entered.append(_K + 6 + len(entered))
            decoder.add_packet(entered[-1], row(entered[-1]))
        entered.append(_K + 6 + len(entered))
        assert decoder.held_rows == len(entered) - 1 and not calls
        decoder.add_packet(entered[-1], row(entered[-1]))
        assert len(entered) == _K
    assert decoder.held_rows == 0
    assert [rows for rows, _ in calls] == [len(entered)]
    seen = decoder._equations_seen
    if payload:
        assert np.array_equal(calls[0][1],
                              np.stack([row(i) for i in entered]))
    # from here on every droplet enters on arrival
    decoder.add_packet(1, row(1))
    assert decoder.held_rows == 0
    assert decoder._equations_seen == seen + 1
