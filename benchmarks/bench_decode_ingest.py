"""Decode-ingest rates: droplet intake per batch size.

The receive path's core loop, isolated from channels and transfer
machinery: a pre-minted LT droplet stream (one transfer block's
geometry, k=128 x 1 KiB) is fed to a fresh decoder through
``add_packets`` in fixed batch sizes.  Published metrics are
droplets/second and decode MB/s per batch size, plus ``ingest_vs_xor``:
decode MB/s over the MB/s of one plain ``np.bitwise_xor`` pass over the
same block, timed in the same process.  A Tornado B block (k=256, the
smallest round size with a graph layer under the cap) is swept the same
way.

Every native decoder banks arrivals until its system is square and
enters them as one batch, so how finely the stream is cut should barely
matter: ``tools/check_bench.py`` holds the b1 row of each family to at
least half its b256 row — a same-process ratio, no absolute rate — and
the b1 row's ``ingest_vs_xor`` to a floor.

The headline number is ``batched_ingest_vs_xor`` (largest batch): the
bitmatrix intake plus lazy structured elimination, in XOR passes.  The
perf gate holds that metric to an absolute floor, not just to its
committed baseline, and so does this bench.

Results land in ``BENCH_transfer.json`` alongside the pipeline sweep
(see ``_results.BenchRecorder``).
"""

import time

import numpy as np
import pytest

from _results import BenchRecorder
from conftest import xor_pass_seconds
from repro.codes.registry import build_code, incremental_decoder

K = 128
TORNADO_K = 256
PACKET_SIZE = 1024

#: the swept intake granularity; 1 is one droplet per call (the same
#: intake, on a batch of one row).
BATCH_SIZES = [1, 16, 64, 256]
TORNADO_BATCH_SIZES = [1, 16, 256]

#: the headline's floor, shared with ``tools/check_bench.py``.
BATCHED_INGEST_FLOOR = 0.021

RESULTS = BenchRecorder("BENCH_transfer.json", __name__)


def _ingest_rate(batch_size, family="lt", k=K):
    """(packets fed, seconds, XOR-pass seconds): one complete decode and
    one plain XOR pass over the same source block, best of three each."""
    rng = np.random.default_rng(17)
    source = rng.integers(0, 256, size=(k, PACKET_SIZE), dtype=np.uint8)
    code = build_code(family, k, seed=17)
    # rateless: 2k droplets minted ahead (decoding ends well short)
    encoded = (code.encode(source, 2 * k) if code.n is None
               else code.encode(source))
    survivors = np.random.default_rng(3).permutation(encoded.shape[0])
    best = xor_best = float("inf")
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
        xor_best = min(xor_best, xor_pass_seconds(source))
    assert np.array_equal(recovered, source)
    return fed, best, xor_best


@pytest.mark.parametrize("batch_size", BATCH_SIZES,
                         ids=[f"b{b}" for b in BATCH_SIZES])
def test_decode_ingest_rates(benchmark, batch_size):
    """Droplets/sec, decode MB/s and the XOR-pass ratio at one batch size."""
    fed, seconds, xor_seconds = benchmark.pedantic(
        _ingest_rate, args=(batch_size,), rounds=1, iterations=1)
    block_bytes = K * PACKET_SIZE
    ratio = float(f"{xor_seconds / seconds:.3g}")
    benchmark.extra_info["droplets_per_sec"] = round(fed / seconds)
    benchmark.extra_info["decode_MBps"] = round(
        block_bytes / seconds / 1e6, 1)
    RESULTS.record(
        f"ingest-lt-k{K}-b{batch_size}",
        family="lt",
        k=K,
        packet_size=PACKET_SIZE,
        droplets_per_sec=round(fed / seconds),
        decode_MBps=round(block_bytes / seconds / 1e6, 1),
        ingest_vs_xor=ratio,
    )
    if batch_size == max(BATCH_SIZES):
        # The gated headline: bulk intake must hold its floor.
        RESULTS.record(
            f"ingest-lt-k{K}-headline",
            family="lt",
            k=K,
            packet_size=PACKET_SIZE,
            batched_ingest_vs_xor=ratio,
        )
        assert ratio >= BATCHED_INGEST_FLOOR, (
            f"batched ingest decodes at {ratio:g} of one XOR pass's rate "
            f"(gate: {BATCHED_INGEST_FLOOR:g})")


@pytest.mark.parametrize("batch_size", TORNADO_BATCH_SIZES,
                         ids=[f"b{b}" for b in TORNADO_BATCH_SIZES])
def test_tornado_ingest_rates(benchmark, batch_size):
    """Packets/sec and decode MB/s of a Tornado B block at one batch size."""
    fed, seconds, _ = benchmark.pedantic(
        _ingest_rate, args=(batch_size, "tornado-b", TORNADO_K),
        rounds=1, iterations=1)
    block_bytes = TORNADO_K * PACKET_SIZE
    benchmark.extra_info["decode_MBps"] = round(
        block_bytes / seconds / 1e6, 1)
    RESULTS.record(
        f"ingest-tornado-b-k{TORNADO_K}-b{batch_size}",
        family="tornado-b",
        k=TORNADO_K,
        packet_size=PACKET_SIZE,
        packets_per_sec=round(fed / seconds),
        decode_MBps=round(block_bytes / seconds / 1e6, 1),
    )
