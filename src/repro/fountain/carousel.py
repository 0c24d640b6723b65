"""Carousel transmission of an erasure encoding (paper Sections 4, 6).

"An obvious way to approximate a digital fountain [...] is to set n to be
a multiple of k, and repeatedly cycle through and send the n encoding
packets"; in the simulations "the server then simply cycled through a
random permutation of the source and redundant packets".

:class:`CarouselServer` implements exactly that: it holds an encoding,
fixes a seed-derived random permutation, and yields packets indefinitely.
Interleaved codes supply their own deterministic interleaved order via
``carousel_order``; the carousel respects a code-provided order when
asked.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.codes.base import ErasureCode
from repro.errors import ParameterError
from repro.fountain.source import SequencedPacketSource
from repro.utils.rng import RngLike, spawn_rng

#: rng stream label for the transmission permutation.
_PERMUTATION_STREAM = 0x5EED


class CarouselServer(SequencedPacketSource):
    """Cycles through an encoding in a fixed (random or given) order.

    Parameters
    ----------
    code:
        The erasure code; its ``n`` defines the carousel cycle length.
    encoding:
        Optional ``(n, P)`` encoding block — a numpy array or any
        row-indexable object with a matching ``shape`` (e.g. a lazy
        :class:`~repro.codes.base.BlockEncoder`, which computes rows the
        first time the carousel reaches them).  When omitted the server
        is *index-only* — useful for structural simulations that never
        touch payload bytes.
    order:
        Explicit transmission order for one cycle (e.g. an interleaved
        code's schedule).  Defaults to a seed-derived random permutation.
    seed:
        Seed for the default permutation.
    group:
        Group number stamped into packet headers.
    """

    def __init__(self, code: ErasureCode,
                 encoding=None,
                 order: Optional[Sequence[int]] = None,
                 seed: RngLike = 0,
                 group: int = 0):
        super().__init__(group=group)
        self.code = code
        self.encoding = encoding
        if encoding is not None and encoding.shape[0] != code.n:
            raise ParameterError(
                f"encoding has {encoding.shape[0]} packets, code has n={code.n}")
        if order is not None:
            self.order = np.asarray(order, dtype=np.int64)
            if sorted(self.order.tolist()) != list(range(code.n)):
                raise ParameterError(
                    "order must be a permutation of all encoding indices")
        else:
            rng = spawn_rng(seed, _PERMUTATION_STREAM)
            self.order = rng.permutation(code.n).astype(np.int64)

    @property
    def cycle_length(self) -> int:
        """Packets per full carousel cycle."""
        return self.code.n

    def index_stream(self, count: int) -> np.ndarray:
        """The next ``count`` encoding indices (no packet objects).

        Stateless with respect to the serial counter: slot ``t`` always
        carries ``order[t % n]``, so simulations can regenerate any
        window of the stream from the shared seed.
        """
        return self._indices(0, count)

    def _indices(self, first: int, count: int) -> np.ndarray:
        return self.order[(first + np.arange(count, dtype=np.int64))
                          % self.cycle_length]

    def _gather(self, indices: np.ndarray) -> np.ndarray:
        if self.encoding is None:
            raise ParameterError(
                "index-only carousel cannot emit payload packets; "
                "construct with an encoding block")
        return self.encoding[indices]

    def _headroom(self, count: int) -> int:
        # The cycle never ends; looking further ahead than one
        # revolution would only gather the same rows twice.
        return self.cycle_length
