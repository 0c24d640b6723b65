"""Raptor encode fast path: solve-plan speedup and geometry-build cost.

The systematic Raptor encoder used to run a peeling *pre-solve* per
block (build the constraint+systematic system, peel it, back-substitute
— a full solver pass over every block's payloads).  The fast path
factors each :class:`~repro.codes.raptor.precode.RaptorGeometry` once
into a recorded :class:`~repro.codes.peeling.SolvePlan` and replays it
against every block's source bytes as pure XOR waves; the process-wide
cache (:mod:`repro.codes.raptor.cache`) then shares one geometry and
one plan across every consumer that agrees on ``(k, eps, c, delta,
seed)``.

Three measurement groups, all published to ``BENCH_raptor.json``:

* ``raptor-plan-k*`` — per-block intermediate pre-solve, plan replay
  vs the retired solver path, with the byte-identity check inline
  (``plan_speedup`` is a same-machine ratio, gated by the speedup
  rule in ``tools/check_bench.py``);
* ``raptor-geometry-build-k*`` — what one *cold* spec costs (at
  ``k = 8192`` the echelon's fill-in still makes it most of a second,
  which is exactly why the cache exists) against the cached lookup,
  plus ``scan_speedup``: the per-ESI scan the chunked one replaced
  (``tests/_oracles.py::scalar_systematic_scan``) over the shipped scan
  on the same spec in the same process, equal arrays asserted — a
  same-machine ratio the speedup rule tracks and, at ``k = 256`` (the
  block size every end-to-end workload runs), a ``CASE_FLOORS`` entry
  holds above 3x;
* ``raptor-structural-decode-k*`` — a structural (payload-less) decode
  of one 20 %-loss id stream, fed in deficit-sized chunks as the serve
  shadows feed it: the peeling engine (``RaptorDecoder``) against the
  rank test ``new_decoder(None)`` hands out, equal completing packet
  asserted, plus what the rank test's generator costs cold.
  ``rank_speedup`` is a same-process ratio; at ``k = 256`` a
  ``CASE_FLOORS`` entry holds it above half of what it first measured.
"""

import time

import numpy as np
import pytest

from _results import BenchRecorder
from repro.codes.raptor.cache import GeometryPlanCache
from repro.codes.raptor.decoder import RaptorDecoder, RaptorRankDecoder
from repro.codes.raptor.encoder import (
    build_encode_plan,
    presolve_intermediates,
)
from repro.codes.raptor.precode import _select_systematic, raptor_geometry
from tests._oracles import scalar_systematic_scan

PACKET_SIZE = 1024

#: block sizes for the plan-vs-presolve encode comparison.
PLAN_KS = [128, 1024]

#: geometry-build profile points: 256 is the block size all four
#: end-to-end workloads run, 8192 the "big block" scan cost.
BUILD_KS = [256, 1024, 8192]

#: block sizes for the structural decode comparison.
STRUCTURAL_KS = [256, 1024]

#: channel loss of the structural decode's id stream.
STRUCTURAL_LOSS = 0.2

RESULTS = BenchRecorder("BENCH_raptor.json", __name__)


def _best_of(fn, passes=3):
    """Best wall-clock of ``passes`` calls; returns (result, seconds)."""
    best = float("inf")
    result = None
    for _ in range(passes):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


@pytest.mark.parametrize("k", PLAN_KS, ids=[f"k{k}" for k in PLAN_KS])
def test_encode_plan_speedup(benchmark, k):
    """Plan replay vs per-block pre-solve on one block, byte-identical."""
    geometry = raptor_geometry(k, seed=17)
    plan = build_encode_plan(geometry)
    source = np.random.default_rng(23).integers(
        0, 256, size=(k, PACKET_SIZE), dtype=np.uint8)

    def measure():
        solved, presolve_s = _best_of(
            lambda: presolve_intermediates(geometry, source))
        replayed, plan_s = _best_of(lambda: plan.apply(source))
        return solved, replayed, presolve_s, plan_s

    solved, replayed, presolve_s, plan_s = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    # The hard invariant of the fast path: same bytes out.
    assert np.array_equal(solved, replayed)
    block_mb = k * PACKET_SIZE / 1e6
    benchmark.extra_info["plan_speedup"] = round(presolve_s / plan_s, 1)
    RESULTS.record(
        f"raptor-plan-k{k}",
        k=k,
        packet_size=PACKET_SIZE,
        waves=plan.wave_count,
        xor_terms=plan.xor_terms,
        presolve_MBps=round(block_mb / presolve_s, 1),
        plan_MBps=round(block_mb / plan_s, 1),
        plan_speedup=round(presolve_s / plan_s, 1),
    )
    assert presolve_s > plan_s


@pytest.mark.parametrize("k", BUILD_KS, ids=[f"k{k}" for k in BUILD_KS])
def test_geometry_build_cost(benchmark, k):
    """Cold spec cost (scan + plan) vs the cached lookup."""

    def measure():
        # A private cache keeps this measurement re-runnable (the
        # shared process-wide cache would make every pass a hit).
        cache = GeometryPlanCache()
        start = time.perf_counter()
        assets = cache.get(k, seed=17)
        geometry_s = time.perf_counter() - start
        start = time.perf_counter()
        assets.encode_plan()
        plan_s = time.perf_counter() - start
        _, lookup_s = _best_of(lambda: cache.get(k, seed=17).encode_plan())
        spec = assets.geometry.spec
        rows = assets.geometry.constraint_rows()
        oracle, scalar_s = _best_of(
            lambda: scalar_systematic_scan(spec, *rows, k), passes=2)
        shipped, scan_s = _best_of(
            lambda: _select_systematic(spec, *rows, k), passes=2)
        assert np.array_equal(oracle, shipped)
        return geometry_s, plan_s, lookup_s, scalar_s / scan_s

    geometry_s, plan_s, lookup_s, scan_speedup = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    benchmark.extra_info["cold_seconds"] = round(geometry_s + plan_s, 3)
    RESULTS.record(
        f"raptor-geometry-build-k{k}",
        k=k,
        geometry_seconds=round(geometry_s, 4),
        plan_seconds=round(plan_s, 4),
        cold_seconds=round(geometry_s + plan_s, 4),
        cached_lookup_seconds=round(lookup_s, 7),
        scan_speedup=round(scan_speedup, 1),
    )
    # The whole point of the cache: a hit must be orders of magnitude
    # below a rebuild (conservative 100x bound; measured ~10^5).
    assert lookup_s * 100 < geometry_s + plan_s


def _decode_structurally(decoder, ids):
    """Feed ``ids`` in deficit-sized chunks until complete; returns how
    many were fed."""
    pos = 0
    while pos < ids.size and not decoder.is_complete:
        take = max(1, decoder.min_additional_packets)
        decoder.add_packets(ids[pos:pos + take])
        pos += take
    assert decoder.is_complete
    return pos


@pytest.mark.parametrize("k", STRUCTURAL_KS,
                         ids=[f"k{k}" for k in STRUCTURAL_KS])
def test_structural_decode_speedup(benchmark, k):
    """Engine vs rank test on one lossy id stream, same completion."""
    ids = np.arange(4 * k)
    ids = ids[np.random.default_rng(k).random(ids.size) >= STRUCTURAL_LOSS]

    def measure():
        assets = GeometryPlanCache().get(k, seed=17)
        start = time.perf_counter()
        assets.generator()
        generator_s = time.perf_counter() - start
        # alternating passes, so a slow spell of the box hits both
        engine_s = rank_s = float("inf")
        for _ in range(9):
            engine, seconds = _best_of(lambda: _decode_structurally(
                RaptorDecoder(assets.geometry), ids), passes=1)
            engine_s = min(engine_s, seconds)
            rank, seconds = _best_of(lambda: _decode_structurally(
                RaptorRankDecoder(assets.geometry, assets.generator), ids),
                passes=1)
            rank_s = min(rank_s, seconds)
            assert engine == rank
        return engine, generator_s, engine_s, rank_s

    packets, generator_s, engine_s, rank_s = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    benchmark.extra_info["rank_speedup"] = round(engine_s / rank_s, 1)
    RESULTS.record(
        f"raptor-structural-decode-k{k}",
        k=k,
        loss=STRUCTURAL_LOSS,
        packets=packets,
        engine_ms=round(engine_s * 1e3, 2),
        rank_ms=round(rank_s * 1e3, 2),
        generator_seconds=round(generator_s, 4),
        rank_speedup=round(engine_s / rank_s, 1),
    )
    assert rank_s < engine_s
