"""Shared hooks for the benchmark suite.

The five ``bench_*`` modules each publish rows of a committed
``BENCH_*.json`` baseline that ``tools/check_bench.py`` gates (the
paper's tables and figures are checked by
``tests/test_paper_claims.py`` instead).  This file publishes the rows a
run recorded and holds the same-process XOR denominator of the codec
rate ratios.
"""

import pathlib
import time

import numpy as np

from _results import flush_all

#: modules some of whose collected tests were deselected (``-k``, ``-m``).
_DESELECTED = set()


def pytest_deselected(items):
    _DESELECTED.update(item.module.__name__ for item in items)


def pytest_sessionfinish(session, exitstatus):
    """Publish the BENCH_*.json summaries collected by this run.

    A module ran in part when some of its tests were deselected or the
    command line named a test of it by node id; its unrecorded rows
    stay (see ``_results.BenchRecorder.flush``).
    """
    named = {pathlib.Path(arg.split("::")[0]).stem
             for arg in session.config.args if "::" in arg}
    flush_all(ran_in_part=_DESELECTED | named)


def xor_pass_seconds(block, repeats=20):
    """Best-of-``repeats`` seconds of one plain ``np.bitwise_xor`` pass
    over ``block``'s bytes, one packet row per call.

    The same-process denominator of the codec rate ratios
    (``*_vs_xor``: a codec's MB/s over this pass's MB/s on the same
    bytes): touching every packet once is the floor of any packet-level
    codec, and timing it in the same process cancels most of what the
    machine contributes to either rate.  Callers take it once per
    timed codec pass and keep the best, so both sides of a ratio sample
    the same stretch of time.
    """
    other = np.roll(block, 1, axis=0)
    out = np.empty_like(block)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for row in range(block.shape[0]):
            np.bitwise_xor(block[row], other[row], out=out[row])
        best = min(best, time.perf_counter() - start)
    return best
