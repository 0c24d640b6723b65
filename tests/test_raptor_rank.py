"""The structural Raptor decoder is a rank test, observationally the engine.

``RaptorCode.new_decoder(None)`` hands back a
:class:`~repro.codes.raptor.decoder.RaptorRankDecoder`: no equations,
no peeling, only the rank of the repair droplets' generator rows over
the source packets not yet seen.  Three things make that safe:

* the **generator** is the pre-solve's inverse — its rows equal the
  encode plan applied to the identity, and every repair payload is the
  XOR of the source packets its row names;
* **after every call** the rank decoder answers what
  ``RaptorDecoder(geometry)`` (the peeling engine, structural) answers,
  on every counter of the decoder contract, ``min_additional_packets``
  included — arrivals in order, shuffled, duplicated, cut into random
  or deficit-sized chunks;
* the **cache** bounds the generator bytes it holds and reports what
  the generators cost.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import make_source, oracle_memory_serve
from repro import api
from repro.codes.raptor import (
    RaptorCode,
    RaptorDecoder,
    RaptorRankDecoder,
    build_encode_plan,
    build_generator,
    raptor_geometry,
)
from repro.codes.raptor import cache as raptor_cache
from repro.codes.raptor.cache import GeometryPlanCache
from repro.codes.registry import IncrementalDecoder
from repro.errors import ParameterError
from repro.net.transport import MemoryTransport
from repro.transfer.client import TransferClient


def _state(decoder) -> tuple:
    return (decoder.is_complete, decoder.source_known_count,
            decoder.packets_added, decoder.duplicates_seen,
            decoder.min_additional_packets)


def _bits(rows: np.ndarray, k: int) -> np.ndarray:
    """Generator rows as a ``(rows, k)`` 0/1 matrix."""
    return np.unpackbits(rows.view(np.uint8), axis=1, count=k,
                         bitorder="little")


# -- the generator -------------------------------------------------------------


@pytest.mark.parametrize("k", [8, 256, 1024])
def test_generator_rows_are_the_plan_applied_to_the_identity(k):
    geometry = raptor_geometry(k, seed=k)
    generator = build_generator(geometry)
    assert generator.shape == (geometry.intermediate_count, -(-k // 64))
    identity = np.packbits(np.eye(k, dtype=np.uint8), axis=1,
                           bitorder="little")
    want = build_encode_plan(geometry).apply(identity)
    assert np.array_equal(generator.view(np.uint8)[:, :want.shape[1]], want)
    # no bit beyond the k source columns
    assert not _bits(generator, 64 * generator.shape[1])[:, k:].any()


@pytest.mark.parametrize("k", [8, 64, 256])
def test_every_repair_payload_is_the_xor_its_row_names(k):
    code = RaptorCode(k, seed=3)
    source = make_source(k, 16, seed=k)
    encoder = code.encoder(source)
    generator = build_generator(code.geometry)
    ids = np.arange(k, 3 * k)
    flat, indptr = code.geometry.spec.neighbour_block(
        code.geometry.internal_esis(ids))
    rows = _bits(np.bitwise_xor.reduceat(generator[flat], indptr[:-1]), k)
    payloads = encoder.payload_block(ids)
    for row, payload in zip(rows, payloads):
        named = source[np.flatnonzero(row)]
        want = (np.bitwise_xor.reduce(named, axis=0) if named.size
                else np.zeros(16, dtype=np.uint8))
        assert np.array_equal(payload, want)


# -- after every call, the engine's answers ------------------------------------


def _arrivals(rng, k, loss, kind):
    ids = np.arange(4 * k + 40)
    ids = ids[rng.random(ids.size) >= loss]
    if kind == "shuffled":
        ids = rng.permutation(ids)
    elif kind == "duplicated":
        ids = np.repeat(ids, rng.integers(1, 3, ids.size))
        ids = ids[rng.permutation(ids.size)] if rng.random() < 0.5 else ids
    return ids


@settings(max_examples=60, deadline=None)
@given(k=st.sampled_from([8, 16, 64, 256]),
       loss=st.floats(0.0, 0.6),
       kind=st.sampled_from(["in-order", "shuffled", "duplicated"]),
       chunks=st.sampled_from(["random", "deficit"]),
       seed=st.integers(0, 2 ** 16))
def test_rank_decoder_answers_as_the_engine_after_every_call(
        k, loss, kind, chunks, seed):
    rng = np.random.default_rng(seed)
    code = RaptorCode(k, seed=seed)
    rank, engine = code.new_decoder(), RaptorDecoder(code.geometry)
    assert isinstance(rank, RaptorRankDecoder)
    ids = _arrivals(rng, k, loss, kind)
    pos = 0
    while pos < ids.size and not engine.is_complete:
        take = (max(1, engine.min_additional_packets) if chunks == "deficit"
                else int(rng.integers(1, 40)))
        chunk = ids[pos:pos + take]
        pos += take
        if chunk.size == 1:
            assert (rank.add_packet(int(chunk[0]))
                    == engine.add_packet(int(chunk[0])))
        else:
            assert rank.add_packets(chunk) == engine.add_packets(chunk)
        assert _state(rank) == _state(engine), pos
    # arrivals after completion are counted and dropped by both
    chunk = ids[max(0, pos - 3):pos + 5]
    assert rank.add_packets(chunk) == engine.add_packets(chunk)
    assert _state(rank) == _state(engine)


def test_systematic_ids_after_repairs_shrink_the_columns():
    """A repair that only names source packets seen verbatim later adds
    nothing: the basis is projected onto the columns still missing."""
    k = 64
    code = RaptorCode(k, seed=2)
    rank, engine = code.new_decoder(), RaptorDecoder(code.geometry)
    for batch in (np.arange(k, k + 20), np.arange(0, k, 2),
                  np.arange(k + 20, k + 30), np.arange(1, k, 4),
                  np.arange(k + 30, k + 60)):
        assert rank.add_packets(batch) == engine.add_packets(batch)
        assert _state(rank) == _state(engine)


def test_clean_block_builds_no_generator():
    cache = GeometryPlanCache()
    assets = cache.get(128, seed=9)
    decoder = RaptorRankDecoder(assets.geometry, assets.generator)
    decoder.add_packets(np.arange(128))
    assert decoder.is_complete and decoder.min_additional_packets == 0
    assert cache.stats()["generators_cached"] == 0


def test_rank_decoder_contract_edges():
    decoder = RaptorCode(16, seed=1).new_decoder()
    with pytest.raises(ParameterError, match="droplet id"):
        decoder.add_packets([3, -1])
    assert decoder.packets_added == 0
    assert decoder.add_packet(3) and not decoder.add_packet(3)
    assert decoder.duplicates_seen == 1
    with pytest.raises(ParameterError, match="no payloads"):
        decoder.source_data()


# -- the cache -----------------------------------------------------------------


def test_cache_bounds_generator_bytes_and_reports_them(monkeypatch):
    weights = {k: raptor_geometry(k, seed=5).intermediate_count * 8
               for k in (40, 50, 60)}
    monkeypatch.setattr(raptor_cache, "_GENERATOR_BYTES",
                        sum(weights.values()) - 1)
    cache = GeometryPlanCache()
    for k in weights:
        assets = cache.get(k, seed=5)
        assert assets.generator().nbytes == weights[k]
    stats = cache.stats()
    assert stats["evictions"] == 1 and stats["size"] == 2
    assert stats["generators_cached"] == 2
    assert stats["generator_bytes"] == weights[50] + weights[60]
    assert stats["generator_seconds"] > 0.0
    assert stats["plans_cached"] == 0
    # an evicted entry's generator seconds stay counted
    seconds = stats["generator_seconds"]
    cache.clear()
    # building a generator is a use: the entry it is built on stays,
    # the least recently used one goes
    held = {k: cache.get(k, seed=5) for k in (40, 50, 60)}
    for k in (60, 40, 50):
        held[k].generator()
    assert sorted(key[0] for key in cache._entries) == [40, 50]
    assert cache.stats()["evictions"] == 1
    assert seconds > 0.0 and cache.stats()["generator_seconds"] > 0.0


def test_cache_stats_cli_reports_generators(capsys):
    from repro import cli
    from repro.codes.raptor.cache import cached_raptor_assets

    # a spec nothing else asks for: a certain cold generator build
    cached_raptor_assets(24, eps=0.0625, seed=8642).generator()
    assert cli.main(["codes", "cache-stats", "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)["caches"][
        "raptor-geometry-plan"]
    assert stats["generators_cached"] >= 1
    assert stats["generator_seconds"] > 0.0
    assert stats["generator_bytes"] >= 8 * 27


def test_structural_decoder_keeps_the_contract():
    decoder = RaptorCode(32, seed=2).new_decoder()
    assert isinstance(decoder, IncrementalDecoder)
    assert isinstance(RaptorCode(32, seed=2).new_decoder(8), RaptorDecoder)


# -- an explicit count feeds no shadow -----------------------------------------


@pytest.mark.parametrize("code", ["raptor", "lt"])
def test_counted_memory_serve_skips_its_shadows(code, monkeypatch):
    def run(serve):
        session = api.SenderSession(
            np.random.default_rng(4).integers(0, 256, 150 * 32,
                                              dtype=np.uint8).tobytes(),
            code=code, packet_size=32, block_size=60 * 32, seed=4)
        transport = MemoryTransport(loss=0.2, seed=6)
        subs = [transport.subscribe() for _ in range(2)]
        report = serve(transport, session, count=260)
        return (report.emitted, report.delivered, report.dropped,
                [list(map(bytes, sub.records())) for sub in subs])

    want = run(oracle_memory_serve)
    calls = []
    monkeypatch.setattr(TransferClient, "receive_window",
                        lambda self, *a: calls.append(a))
    assert run(MemoryTransport.serve) == want
    assert not calls
