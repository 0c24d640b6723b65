"""Raptor subsystem tests: geometry, systematic mapping, two-stage decode.

The load-bearing properties, pinned with Hypothesis over random
``(k, eps, seed)`` tuples:

* **systematic round trip** — droplet ids below ``k`` emit the source
  packets byte-exactly, and a receiver holding any subset of them gets
  those packets back byte-exactly however the rest of the block was
  recovered;
* **geometry agreement** — encoder and decoder derive the identical
  intermediate-block geometry (counts, systematic index, constraint
  rows) from the shared ``(k, params, seed)`` tuple, so the spec string
  in a manifest is all the wire needs to carry;
* **scan agreement** — the chunked systematic scan keeps exactly the
  ESIs the per-ESI loop it replaced keeps
  (``tests/_oracles.py::scalar_systematic_scan``), at any chunk size.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes.degree import DegreeDistribution
from repro.codes.lt.encoder import DropletSpec
from repro.codes.raptor import precode
from repro.codes.raptor.cache import GeometryPlanCache
from repro.codes.raptor.code import RaptorCode
from repro.codes.raptor.decoder import RaptorDecoder
from repro.codes.raptor.encoder import (
    RaptorEncoder,
    build_encode_plan,
    presolve_intermediates,
)
from repro.codes.raptor.precode import raptor_geometry, weakened_soliton
from repro.codes.registry import build_code
from repro.errors import DecodeFailure, ParameterError
from tests._oracles import scalar_systematic_scan

_k = st.integers(min_value=1, max_value=120)
_eps = st.floats(min_value=0.02, max_value=0.5, allow_nan=False)
_seed = st.integers(min_value=0, max_value=2**32 - 1)


def _source(k: int, payload: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(k, payload), dtype=np.uint8)


class TestGeometry:
    def test_counts_and_systematic_index(self):
        g = raptor_geometry(100, eps=0.05, seed=3)
        assert g.parity_count == math.ceil(0.05 * 100)
        assert g.dense_count >= 2
        assert g.intermediate_count == 100 + g.parity_count + g.dense_count
        # The systematic index is strictly increasing and repair ESIs
        # start right after it — the two id ranges never collide.
        esis = g.systematic_esis
        assert esis.size == 100
        assert (np.diff(esis) > 0).all()
        assert g.repair_base == int(esis[-1]) + 1

    def test_constraint_rows_have_private_parity_columns(self):
        g = raptor_geometry(64, seed=9)
        indptr, flat = g.constraint_rows()
        assert indptr.size - 1 == g.parity_count + g.dense_count
        heads = flat[indptr[:-1]]
        # Each check owns its parity column: the constraint block has
        # full rank r by construction.
        assert sorted(heads.tolist()) == list(
            range(64, g.intermediate_count))

    def test_weakened_distribution_is_capped(self):
        dist = weakened_soliton(2000, 0.05, 0.03, 0.1)
        cap = math.ceil(4 * 1.05 / 0.05)
        assert dist.max_degree == cap + 1
        assert dist.average_degree < 8  # O(1) work per droplet
        # Small blocks degenerate to the (soliton) LT regime where the
        # cap is vacuous and c/delta keep their meaning.
        small = weakened_soliton(40, 0.05, 0.03, 0.1)
        assert small.max_degree <= 40

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            raptor_geometry(0)
        with pytest.raises(ParameterError):
            raptor_geometry(10, eps=0.0)
        with pytest.raises(ParameterError):
            raptor_geometry(10, c=-1.0)
        with pytest.raises(ParameterError):
            raptor_geometry(10, delta=1.0)

    @given(_k, _eps, _seed)
    @settings(max_examples=40, deadline=None)
    def test_geometry_agrees_across_derivations(self, k, eps, seed):
        """Encoder and decoder sides — and any two derivations — reach
        one identical geometry from the shared tuple."""
        a = raptor_geometry(k, eps=eps, seed=seed)
        b = raptor_geometry(k, eps=eps, seed=seed)
        assert a.intermediate_count == b.intermediate_count
        assert a.parity_count == b.parity_count
        assert a.dense_count == b.dense_count
        np.testing.assert_array_equal(a.systematic_esis, b.systematic_esis)
        for left, right in zip(a.constraint_rows(), b.constraint_rows()):
            np.testing.assert_array_equal(left, right)
        # The decoder's own copy is the same object graph the encoder
        # uses — one source of truth.
        code = RaptorCode(k, eps=eps, seed=seed)
        decoder = code.new_decoder()
        assert decoder.geometry is code.geometry
        assert decoder.spec is code.geometry.spec


def _scan_chunk_rows(intermediate_count, rows):
    """Patch the scan's chunk budget down to ``rows`` rows per draw
    (``None``: the shipped budget)."""
    cells = (precode._SCAN_CHUNK_CELLS if rows is None
             else rows * intermediate_count)
    return mock.patch.object(precode, "_SCAN_CHUNK_CELLS", cells)


def _oracle_esis(geometry):
    indptr, flat = geometry.constraint_rows()
    return scalar_systematic_scan(geometry.spec, indptr, flat, geometry.k)


class TestChunkedScan:
    """The chunked systematic scan against the per-ESI loop it replaced."""

    @given(st.integers(min_value=1, max_value=400),
           st.floats(min_value=0.02, max_value=1.0, allow_nan=False), _seed)
    @settings(max_examples=40, deadline=None)
    def test_scan_equals_scalar_oracle_at_any_chunk_size(self, k, eps, seed):
        """Same ESIs at the shipped chunk size and at 3 and 1 rows per
        draw, where rejected rows and the k-th kept row fall on chunk
        edges."""
        shipped = raptor_geometry(k, eps=eps, seed=seed)
        expected = _oracle_esis(shipped)
        np.testing.assert_array_equal(shipped.systematic_esis, expected)
        for rows in (3, 1):
            with _scan_chunk_rows(shipped.intermediate_count, rows):
                again = raptor_geometry(k, eps=eps, seed=seed)
            np.testing.assert_array_equal(again.systematic_esis, expected)

    @pytest.mark.parametrize("k, eps, seed, esi", [(17, 0.2, 24, 6),
                                                   (12, 0.05, 159, 3)])
    def test_row_that_falls_back_to_the_scalar_walk(self, k, eps, seed, esi):
        """Specs found by search: ``neighbour_block``'s walk window comes
        up short on a row the scan keeps or rejects, so that row arrives
        through the scalar fallback."""
        with mock.patch.object(DropletSpec, "neighbours", autospec=True,
                               side_effect=DropletSpec.neighbours) as walk:
            geometry = raptor_geometry(k, eps=eps, seed=seed)
        assert [call.args[1] for call in walk.call_args_list] == [esi]
        assert esi < geometry.repair_base
        np.testing.assert_array_equal(geometry.systematic_esis,
                                      _oracle_esis(geometry))

    @pytest.mark.parametrize("rows", [None, 3, 1])
    def test_scan_limit_raises_like_the_oracle(self, rows):
        """Every droplet of this spec is the same all-ones row, so the
        rank grows once and the scan runs into its ``4 k' + 64`` limit —
        without ever drawing an ESI beyond it."""
        spec = DropletSpec(4, DegreeDistribution((4,), (1.0,)), seed=0)
        empty = np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)
        with pytest.raises(ParameterError, match="did not converge"):
            scalar_systematic_scan(spec, *empty, 2)
        drawn = []
        draw = DropletSpec.neighbour_block

        def recording(self, ids):
            drawn.extend(np.asarray(ids).tolist())
            return draw(self, ids)

        with _scan_chunk_rows(spec.k, rows), \
                mock.patch.object(DropletSpec, "neighbour_block", recording), \
                pytest.raises(ParameterError, match="did not converge"):
            precode._select_systematic(spec, *empty, 2)
        assert drawn == list(range(4 * spec.k + 64))
        np.testing.assert_array_equal(
            precode._select_systematic(spec, *empty, 1), [0])


class TestSystematicMapping:
    @given(_k, _eps, _seed)
    @settings(max_examples=30, deadline=None)
    def test_ids_below_k_round_trip_byte_exactly(self, k, eps, seed):
        code = RaptorCode(k, eps=eps, seed=seed)
        source = _source(k, 17, seed ^ 0xABCD)
        encoder = code.encoder(source)
        block = encoder.payload_block(list(range(k)))
        np.testing.assert_array_equal(block, source)
        for i in (0, k // 2, k - 1):
            np.testing.assert_array_equal(
                encoder.droplet_payload(i), source[i])

    @given(_k, _seed)
    @settings(max_examples=20, deadline=None)
    def test_loss_free_receiver_skips_the_solver(self, k, seed):
        code = RaptorCode(k, seed=seed)
        source = _source(k, 9, seed ^ 0x5A5A)
        encoder = code.encoder(source)
        decoder = code.new_decoder(payload_size=9)
        decoder.add_packets(list(range(k)), encoder.payload_block(range(k)))
        assert decoder.is_complete
        np.testing.assert_array_equal(decoder.source_data(), source)
        # The engine itself never had to finish: completion came from
        # the verbatim systematic packets alone.
        assert decoder.packets_added == k

    def test_presolve_pins_systematic_rows(self):
        """The intermediate block satisfies both row families: zero
        constraints and source-valued systematic droplet rows."""
        g = raptor_geometry(48, seed=5)
        source = _source(48, 11, 1)
        inter = presolve_intermediates(g, source)
        assert inter.shape == (g.intermediate_count, 11)
        indptr, flat = g.constraint_rows()
        for j in range(indptr.size - 1):
            rows = inter[flat[indptr[j]:indptr[j + 1]]]
            assert not np.bitwise_xor.reduce(rows, axis=0).any()
        for i, esi in enumerate(g.systematic_esis):
            rows = inter[g.spec.neighbours(int(esi))]
            np.testing.assert_array_equal(
                np.bitwise_xor.reduce(rows, axis=0), source[i])


class TestDecoder:
    def test_lossy_decode_byte_exact_and_low_overhead(self):
        code = RaptorCode(64, seed=7)
        source = _source(64, 32, 2)
        encoder = code.encoder(source)
        rng = np.random.default_rng(3)
        ids = [i for i in range(400) if rng.random() > 0.3]
        decoder = code.new_decoder(payload_size=32)
        fed = 0
        for i in ids:
            decoder.add_packet(i, encoder.droplet_payload(i))
            fed += 1
            if decoder.is_complete:
                break
        assert decoder.is_complete
        np.testing.assert_array_equal(decoder.source_data(), source)
        # The Raptor claim: constant small overhead, nothing like the
        # LT coupon-collector threshold.
        assert fed <= math.ceil(1.15 * 64)

    def test_repair_only_decode(self):
        """A receiver that missed every systematic packet still decodes."""
        code = RaptorCode(40, seed=13)
        source = _source(40, 8, 4)
        encoder = code.encoder(source)
        decoder = code.new_decoder(payload_size=8)
        ids = list(range(40, 110))
        decoder.add_packets(ids, encoder.payload_block(ids))
        assert decoder.is_complete
        np.testing.assert_array_equal(decoder.source_data(), source)

    def test_duplicate_and_redundant_accounting(self):
        code = RaptorCode(16, seed=1)
        source = _source(16, 4, 5)
        encoder = code.encoder(source)
        decoder = code.new_decoder(payload_size=4)
        payload = encoder.droplet_payload(0)
        assert decoder.add_packet(0, payload)
        assert not decoder.add_packet(0, payload)
        assert decoder.duplicates_seen == 1
        assert decoder.packets_added == 1

    def test_min_additional_packets_bound(self):
        code = RaptorCode(32, seed=2)
        decoder = code.new_decoder()
        # Fresh decoder: constraints are in, but each droplet can add
        # at most one rank — the bound is exactly k.
        assert decoder.min_additional_packets == 32
        decoder.add_packets(list(range(16)))
        assert decoder.min_additional_packets >= 16
        decoder.add_packets(list(range(16, 40)))
        assert decoder.is_complete
        assert decoder.min_additional_packets == 0

    def test_incomplete_source_data_raises(self):
        code = RaptorCode(24, seed=6)
        decoder = code.new_decoder(payload_size=4)
        source = _source(24, 4, 7)
        encoder = code.encoder(source)
        decoder.add_packet(3, encoder.droplet_payload(3))
        with pytest.raises(DecodeFailure):
            decoder.source_data()
        assert decoder.missing_source_indices().size == 23

    def test_negative_ids_rejected(self):
        decoder = RaptorDecoder(raptor_geometry(8, seed=0))
        with pytest.raises(ParameterError):
            decoder.add_packet(-1)
        with pytest.raises(ParameterError):
            decoder.add_packets([-3])

    def test_structural_threshold_matches_incremental(self):
        code = RaptorCode(48, seed=21)
        rng = np.random.default_rng(11)
        order = [i for i in range(300) if rng.random() > 0.2]
        threshold = code.packets_to_decode(order)
        decoder = code.new_decoder()
        decoder.add_packets(order[:threshold - 1])
        assert not decoder.is_complete
        decoder.add_packet(order[threshold - 1])
        assert decoder.is_complete


class TestRegistryIntegration:
    def test_spec_string_builds_raptor(self):
        code = build_code("raptor:eps=0.1,c=0.05,delta=0.5", 50, seed=3)
        assert isinstance(code, RaptorCode)
        assert code.eps == 0.1 and code.c == 0.05 and code.delta == 0.5
        assert code.n is None  # rateless: no fixed length
        source = _source(50, 8, 9)
        recovered = code.decode(
            {i: p for i, p in zip(range(50, 120),
                                  code.encoder(source).payload_block(
                                      range(50, 120)))})
        np.testing.assert_array_equal(recovered, source)

    def test_encoder_type(self):
        code = build_code("raptor", 20, seed=0)
        assert isinstance(code.encoder(_source(20, 4, 0)), RaptorEncoder)


class TestSolvePlanProperties:
    """Hypothesis: the recorded plan is exactly the engine's solution."""

    @settings(max_examples=12, deadline=None)
    @given(k=st.integers(1, 48),
           payload=st.integers(1, 40),
           geom_seed=st.integers(0, 2 ** 16),
           data_seed=st.integers(0, 2 ** 16))
    def test_plan_apply_equals_engine_solve(self, k, payload, geom_seed,
                                            data_seed):
        geometry = raptor_geometry(k, seed=geom_seed)
        plan = build_encode_plan(geometry)
        rng = np.random.default_rng(data_seed)
        source = rng.integers(0, 256, size=(k, payload), dtype=np.uint8)
        assert np.array_equal(plan.apply(source),
                              presolve_intermediates(geometry, source))

    @settings(max_examples=10, deadline=None)
    @given(k=st.integers(1, 40),
           seed=st.integers(0, 2 ** 16),
           delta_k=st.integers(1, 8))
    def test_cache_never_shares_across_specs(self, k, seed, delta_k):
        """Distinct parameter tuples resolve to distinct assets/plans;
        the same tuple resolves to the identical objects."""
        cache = GeometryPlanCache()
        base = cache.get(k, seed=seed)
        again = cache.get(k, seed=seed)
        assert again is base
        assert again.encode_plan() is base.encode_plan()
        other_k = cache.get(k + delta_k, seed=seed)
        other_seed = cache.get(k, seed=seed + 1)
        other_eps = cache.get(k, eps=0.1, seed=seed)
        for other in (other_k, other_seed, other_eps):
            assert other is not base
            assert other.encode_plan() is not base.encode_plan()
        assert other_k.geometry.k == k + delta_k

    def test_cache_eviction_bound_and_counters(self):
        """The bound is a budget in intermediate symbols, not entries."""
        weights = {k: raptor_geometry(k, seed=1).intermediate_count
                   for k in (4, 5, 6, 7)}
        # One symbol short of holding all four.
        cache = GeometryPlanCache(maxsize=sum(weights.values()) - 1)
        for k in weights:
            cache.get(k, seed=1)
        stats = cache.stats()
        assert len(cache) == 3
        assert stats["weight"] == sum(weights.values()) - weights[4]
        assert stats["evictions"] == 1
        assert stats["misses"] == 4
        # 4 was evicted (LRU); fetching it again is a miss...
        cache.get(4, seed=1)
        # ...and 7 stayed resident, so this is a hit.
        cache.get(7, seed=1)
        stats = cache.stats()
        assert stats["misses"] == 5
        assert stats["hits"] == 1
        assert stats["weight"] <= cache.maxsize
        # An entry heavier than the whole budget still gets its hits.
        tiny = GeometryPlanCache(maxsize=1)
        assert tiny.get(4, seed=1) is tiny.get(4, seed=1)
        assert tiny.stats()["hits"] == 1

    @pytest.mark.parametrize("blocks", [65, 300])
    def test_in_order_walk_past_64_specs_still_hits(self, blocks):
        """A transfer walks its per-block specs in order, twice (sender,
        then receiver): with the old 64-*entry* LRU the 65th block
        turned every lookup of the second pass into a miss."""
        cache = GeometryPlanCache()
        for _ in range(2):
            for seed in range(blocks):
                cache.get(32, seed=seed)
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (blocks, blocks)
        assert stats["evictions"] == 0 and stats["size"] == blocks

    def test_cache_reports_build_seconds(self):
        cache = GeometryPlanCache()
        assert cache.stats()["geometry_seconds"] == 0.0
        assets = cache.get(40, seed=3)
        cold = cache.stats()
        assert cold["geometry_seconds"] > 0.0 and cold["plan_seconds"] == 0.0
        assets.encode_plan()
        built = cache.stats()["plan_seconds"]
        assert built > 0.0
        # Totals are monotonic: an evicted entry's plan time stays counted.
        small = GeometryPlanCache(maxsize=1)
        small.get(40, seed=3).encode_plan()
        before = small.stats()["plan_seconds"]
        small.get(40, seed=4)
        assert small.stats()["evictions"] == 1
        assert small.stats()["plan_seconds"] == before > 0.0
        small.clear()
        assert small.stats()["plan_seconds"] == 0.0
        assert small.stats()["geometry_seconds"] == 0.0

    def test_shared_cache_serves_registry_codes(self):
        """Two RaptorCode builds with one spec share geometry and plan."""
        a = RaptorCode(24, seed=99)
        b = RaptorCode(24, seed=99)
        assert a.geometry is b.geometry
        source = np.arange(24 * 8, dtype=np.uint8).reshape(24, 8)
        assert np.array_equal(a.encoder(source).intermediates,
                              b.encoder(source).intermediates)
