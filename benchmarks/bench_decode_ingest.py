"""Decode-ingest rates: droplet intake per backend and batch size.

The receive path's core loop, isolated from channels and transfer
machinery: a pre-minted LT droplet stream (one transfer block's
geometry, k=128 x 1 KiB) is fed to a fresh decoder through
``add_packets`` in fixed batch sizes, under both backends.  Published
metrics are droplets/second and decode MB/s per (backend, batch), plus
the vectorized-over-reference speedup per batch size.  A Tornado B
block (k=256, the smallest round size with a graph layer under the cap)
is swept the same way.

Every native decoder banks arrivals until its system is square and
enters them as one batch, so how finely the stream is cut should barely
matter: ``tools/check_bench.py`` holds the b1 row of each family to at
least half its b256 row — a same-process ratio, no absolute rate.

The headline number is ``batched_ingest_speedup`` (largest batch): the
vectorized bitmatrix intake plus lazy structured elimination against
the reference scalar peeler on the identical stream.  The perf gate in
``tools/check_bench.py`` holds that metric to an absolute >= 4x floor,
not just to its committed baseline.

Results land in ``BENCH_transfer.json`` alongside the pipeline sweep
(same recorder; see ``_results.BenchRecorder``).
"""

import time

import numpy as np
import pytest

from _results import BenchRecorder
from repro.codes.backend import use_backend
from repro.codes.registry import build_code, incremental_decoder

K = 128
TORNADO_K = 256
PACKET_SIZE = 1024

#: the swept intake granularity; 1 is one droplet per call (the same
#: intake, on a batch of one row).
BATCH_SIZES = [1, 16, 64, 256]
TORNADO_BATCH_SIZES = [1, 16, 256]

RESULTS = BenchRecorder("BENCH_transfer.json")


def _ingest_rate(backend, batch_size, family="lt", k=K):
    """(packets fed, seconds) for one complete decode, best of three."""
    rng = np.random.default_rng(17)
    source = rng.integers(0, 256, size=(k, PACKET_SIZE), dtype=np.uint8)
    with use_backend(backend):
        code = build_code(family, k, seed=17)
        # rateless: 2k droplets minted ahead (decoding ends well short)
        encoded = (code.encode(source, 2 * k) if code.n is None
                   else code.encode(source))
        survivors = np.random.default_rng(3).permutation(encoded.shape[0])
        best = float("inf")
        for _ in range(3):
            decoder = incremental_decoder(code, payload_size=PACKET_SIZE)
            fed = 0
            start = time.perf_counter()
            while fed < survivors.size and not decoder.is_complete:
                take = batch_size
                if code.n is not None:
                    take = min(take, decoder.min_additional_packets)
                chunk = survivors[fed:fed + take]
                fed += int(chunk.size)
                decoder.add_packets(chunk.tolist(), encoded[chunk])
            elapsed = time.perf_counter() - start
            recovered = decoder.source_data()
            best = min(best, elapsed)
        assert np.array_equal(recovered, source)
    return fed, best


@pytest.mark.parametrize("batch_size", BATCH_SIZES,
                         ids=[f"b{b}" for b in BATCH_SIZES])
def test_decode_ingest_rates(benchmark, batch_size):
    """Droplets/sec and decode MB/s of both backends at one batch size."""

    def measure():
        return (_ingest_rate("vectorized", batch_size),
                _ingest_rate("reference", batch_size))

    (fed_vec, s_vec), (fed_ref, s_ref) = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    block_bytes = K * PACKET_SIZE
    speedup = (block_bytes / s_vec) / (block_bytes / s_ref)
    benchmark.extra_info["droplets_per_sec_vectorized"] = round(
        fed_vec / s_vec)
    benchmark.extra_info["decode_MBps_vectorized"] = round(
        block_bytes / s_vec / 1e6, 1)
    RESULTS.record(
        f"ingest-lt-k{K}-b{batch_size}",
        family="lt",
        k=K,
        packet_size=PACKET_SIZE,
        droplets_per_sec_vectorized=round(fed_vec / s_vec),
        droplets_per_sec_reference=round(fed_ref / s_ref),
        decode_MBps_vectorized=round(block_bytes / s_vec / 1e6, 1),
        decode_MBps_reference=round(block_bytes / s_ref / 1e6, 1),
        ingest_speedup=round(speedup, 1),
    )
    if batch_size == max(BATCH_SIZES):
        # The gated headline: bulk intake must hold a >= 4x win.
        RESULTS.record(
            f"ingest-lt-k{K}-headline",
            family="lt",
            k=K,
            packet_size=PACKET_SIZE,
            batched_ingest_speedup=round(speedup, 1),
        )
        assert speedup >= 4.0, (
            f"vectorized batched ingest is only {speedup:.1f}x the "
            "reference scalar path (gate: 4x)")


@pytest.mark.parametrize("batch_size", TORNADO_BATCH_SIZES,
                         ids=[f"b{b}" for b in TORNADO_BATCH_SIZES])
def test_tornado_ingest_rates(benchmark, batch_size):
    """Packets/sec and decode MB/s of a Tornado B block at one batch size."""

    def measure():
        return (_ingest_rate("vectorized", batch_size, "tornado-b",
                             TORNADO_K),
                _ingest_rate("reference", batch_size, "tornado-b",
                             TORNADO_K))

    (fed_vec, s_vec), (fed_ref, s_ref) = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    block_bytes = TORNADO_K * PACKET_SIZE
    benchmark.extra_info["decode_MBps_vectorized"] = round(
        block_bytes / s_vec / 1e6, 1)
    RESULTS.record(
        f"ingest-tornado-b-k{TORNADO_K}-b{batch_size}",
        family="tornado-b",
        k=TORNADO_K,
        packet_size=PACKET_SIZE,
        packets_per_sec_vectorized=round(fed_vec / s_vec),
        packets_per_sec_reference=round(fed_ref / s_ref),
        decode_MBps_vectorized=round(block_bytes / s_vec / 1e6, 1),
        decode_MBps_reference=round(block_bytes / s_ref / 1e6, 1),
    )
