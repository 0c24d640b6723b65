"""Calibration and estimators for the end-to-end delivery benchmark.

Three facts about the sandbox shape everything here (README.md has the
measurements): the box flips between its full speed and 1.3-1.6 times
slower for half a second to two seconds at a time, interference only
ever makes work *slower*, and a repetition's work is identical every
time.  So the timed work is cut into segments of 10-25 ms, a fixed CPU
kernel runs between every two segments and says how fast the box was
just then (:class:`Calibrator`, :func:`speed_factor`), each segment is
re-expressed at a committed reference speed (:func:`summarise`), and a
segment's cost is the mean of the fastest quarter of its samples over
the repetitions (:func:`best_quarter`) — the part of the distribution
interference cannot reach.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Dict, Iterable, Sequence

import numpy as np

#: seconds one :class:`Calibrator` pass takes at reference speed — the
#: best-quarter mean of 20,000 passes on the 2-core sandbox this
#: benchmark was sized on (README.md, "How CAL_REF_S was fixed").
#: Changing it rescales every normalised metric; it is a unit, not a
#: tunable.
CAL_REF_S = 0.00078

#: calibration kernel geometry.  The four parts are the four kinds of
#: work the delivery path is made of, and they do not slow down alike
#: when the box does (README.md): numpy dispatch on packet-sized rows,
#: system calls that copy a datagram's worth of bytes, interpreter
#: bytecode, and dict/set bookkeeping.
_CAL_ROWS = 256
_CAL_ROW_BYTES = 1024
_CAL_XORS = 300
_CAL_SYSCALLS = 300
_CAL_CHUNK = b"x" * 150
_CAL_LOOP = 2000
_CAL_TABLE = 1000


class MetricError(ValueError):
    """A metric could not be computed (empty series, zero denominator)."""


class Calibrator:
    """The fixed CPU kernel that says how fast the box is right now.

    Owns a pipe (the system-call part writes and reads it back) and a
    scratch block; use as a context manager, or ``close()`` it.
    """

    def __init__(self) -> None:
        self._read, self._write = os.pipe()
        self._block = np.arange(
            _CAL_ROWS * _CAL_ROW_BYTES, dtype=np.uint8).reshape(
                _CAL_ROWS, _CAL_ROW_BYTES)

    def close(self) -> None:
        if self._read >= 0:
            os.close(self._read)
            os.close(self._write)
            self._read = self._write = -1

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __call__(self) -> float:
        """Seconds one pass of the kernel takes (~0.8 ms)."""
        block, rows = self._block, _CAL_ROWS
        read, write, chunk = self._read, self._write, _CAL_CHUNK
        start = time.perf_counter()
        for i in range(_CAL_XORS):
            block[i % rows] ^= block[(i * 7 + 3) % rows]
        for _ in range(_CAL_SYSCALLS):
            os.write(write, chunk)
            os.read(read, 256)
        acc = 0
        for i in range(_CAL_LOOP):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        seen: set = set()
        table: dict = {}
        for i in range(_CAL_TABLE):
            seen.add(i * 7 % 400)
            table[i % 200] = i
        return time.perf_counter() - start


def speed_factor(cal_before: float, cal_after: float,
                 ref: float = CAL_REF_S) -> float:
    """How many times slower than reference the box ran between two
    calibration passes (1.0 = at reference speed)."""
    if ref <= 0 or cal_before <= 0 or cal_after <= 0:
        raise MetricError("calibration times must be positive")
    return (cal_before + cal_after) / 2.0 / ref


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; a zero denominator is a failure.

    A repetition that reports zero busy seconds did not measure
    anything — surfacing it as ``inf`` would make it the *best* sample.
    """
    if denominator <= 0:
        raise MetricError(
            f"ratio {numerator!r} / {denominator!r}: denominator must be "
            "positive")
    return numerator / denominator


def best_quarter(seconds: Sequence[float]) -> float:
    """Mean of the fastest quarter of ``seconds`` (at least 2 samples).

    Interference is one-sided, so the fastest quarter estimates what the
    code costs on an undisturbed box; averaging it (rather than taking
    the single fastest) keeps one lucky sample from setting the value.
    """
    if not seconds:
        raise MetricError("no samples")
    ordered = sorted(seconds)
    keep = min(len(ordered), max(2, len(ordered) // 4))
    return sum(ordered[:keep]) / keep


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's
    repeatability measure)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return ratio(q3 - q1, abs(statistics.median(values)))


def summarise(seconds: Sequence[float],
              factors: Sequence[float]) -> Dict[str, float]:
    """One segment's cost plus the un-gated context beside it.

    Each sample is taken to reference speed (seconds divided by the
    speed factor they were measured at; a rate built from them is
    thereby multiplied by it).  ``value`` is the best-quarter mean of
    the normalised samples, ``median`` their median, and ``raw`` the
    best-quarter mean before normalisation.
    """
    if len(seconds) != len(factors):
        raise MetricError("one speed factor per sample")
    if any(f <= 0 for f in factors):
        raise MetricError("speed factors must be positive")
    normal = [s / f for s, f in zip(seconds, factors)]
    return {
        "value": best_quarter(normal),
        "median": statistics.median(normal),
        "raw": best_quarter(seconds),
    }


def total_of(parts: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Add up per-segment estimates key by key (seconds are additive)."""
    out = {"value": 0.0, "median": 0.0, "raw": 0.0}
    for part in parts:
        for key in out:
            out[key] += part[key]
    return out


def mean_of(parts: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Average per-trial estimates (each loss trial weighs the same)."""
    if not parts:
        raise MetricError("no trials")
    return {key: sum(p[key] for p in parts) / len(parts)
            for key in parts[0]}
