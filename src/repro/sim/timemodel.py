"""Machine-local timing calibration for the cost tables.

Table 4 of the paper derives interleaved decode times from a quadratic
model fitted to the Cauchy column of Table 3 ("we approximate the
decoding time for a block of k source data packets by k^2/31250
seconds" — a constant particular to their 167 MHz UltraSPARC).  We fit
the same-shaped model on the present machine (a substitution README's
"Reproducing the paper" lists: ratios survive the hardware change,
absolute numbers do not), and measure Tornado decode times directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.codes.reed_solomon import ReedSolomonCode
from repro.codes.tornado.code import TornadoCode
from repro.errors import ParameterError
from repro.utils.rng import ensure_rng


def _time_once(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def time_rs_block_decode(block_k: int, payload: int = 1024,
                         construction: str = "cauchy",
                         seed: int = 0) -> float:
    """Seconds to decode one RS block from half source, half redundant.

    Matches the paper's Table 3 protocol: "we assume that k/2 original
    file packets and k/2 redundant packets were used to recover the
    original file" (stretch factor 2 carousel).
    """
    rng = ensure_rng(seed)
    code = ReedSolomonCode(block_k, 2 * block_k, construction=construction)
    source = rng.integers(0, 256, size=(block_k, payload)).astype(
        code.field.dtype)
    encoding = code.encode(source)
    half = block_k // 2
    received = {i: encoding[i] for i in range(half)}
    for j in range(block_k - half):
        received[block_k + j] = encoding[block_k + j]
    return _time_once(lambda: code.decode(received))


def time_tornado_decode(code: TornadoCode, payload: int = 1024,
                        seed: int = 0, repeats: int = 2) -> Tuple[float, int]:
    """Seconds for one Tornado payload decode; returns (time, packets used).

    Receives a random set of exactly the code's decode threshold for the
    sampled arrival order, i.e. the realistic operating point.  Best of
    ``repeats`` timings, mirroring :meth:`TimingModel.fit` — both sides
    of the Table 4 ratio report best-case machine time.
    """
    rng = ensure_rng(seed)
    source = rng.integers(0, 256, size=(code.k, payload), dtype=np.uint8)
    encoding = code.encode(source)
    order = rng.permutation(code.n)
    needed = code.packets_to_decode(order)
    received = {int(i): encoding[i] for i in order[:needed]}
    code.decode(received)  # warm allocator and table caches before timing
    elapsed = min(_time_once(lambda: code.decode(received))
                  for _ in range(max(1, repeats)))
    return elapsed, needed


def time_tornado_encode(code: TornadoCode, payload: int = 1024,
                        seed: int = 0) -> float:
    """Seconds for one Tornado encode."""
    rng = ensure_rng(seed)
    source = rng.integers(0, 256, size=(code.k, payload), dtype=np.uint8)
    return _time_once(lambda: code.encode(source))


def time_rs_encode(k: int, payload: int = 1024,
                   construction: str = "cauchy", seed: int = 0) -> float:
    """Seconds for one whole-file RS encode at stretch 2."""
    code = ReedSolomonCode(k, 2 * k, construction=construction)
    rng = ensure_rng(seed)
    source = rng.integers(0, 256, size=(k, payload)).astype(code.field.dtype)
    return _time_once(lambda: code.encode(source))


@dataclass
class TimingModel:
    """Quadratic per-block RS decode model ``t(k) = coeff * k^2``.

    ``fit`` measures a few modest block sizes (cheap) and averages
    ``t / k^2``; ``predict`` then extrapolates to any block size, which
    is how Table 4 prices the interleaved decoder without running
    16 MB Reed-Solomon decodes for real.
    """

    coeff: float
    samples: Dict[int, float] = field(default_factory=dict)

    @classmethod
    def fit(cls, block_sizes: Sequence[int] = (16, 32, 64),
            payload: int = 1024, construction: str = "cauchy",
            repeats: int = 2) -> "TimingModel":
        if not block_sizes:
            raise ParameterError("need at least one block size")
        samples: Dict[int, float] = {}
        ratios = []
        for k in block_sizes:
            best = min(time_rs_block_decode(k, payload, construction, seed=r)
                       for r in range(repeats))
            samples[int(k)] = best
            ratios.append(best / (k * k))
        return cls(coeff=float(np.median(ratios)), samples=samples)

    def predict(self, block_k: int) -> float:
        """Predicted seconds to decode one block of ``block_k`` packets."""
        if block_k <= 0:
            raise ParameterError("block size must be positive")
        return self.coeff * block_k * block_k

    def interleaved_decode_time(self, total_k: int, num_blocks: int) -> float:
        """Decode time for the whole interleaved file: blocks x per-block."""
        if num_blocks <= 0:
            raise ParameterError("need at least one block")
        block_k = -(-total_k // num_blocks)
        return num_blocks * self.predict(block_k)
