"""The :class:`RaptorCode` public API — a constant-overhead fountain.

The plain LT fountain pays two asymptotic taxes: droplet degree grows
like O(log k) (the soliton spike) and the finite-length decode
threshold has a fat tail.  Raptor removes both by concatenation: a
high-rate *precode* (sparse LDPC checks plus a few half-density
tail-insurance checks) expands the source into ``k' ~ k(1 + eps)``
intermediates, and a *weakened* (constant-degree-capped) LT stage runs
over the intermediates.  The LT stage recovers most of the
intermediates cheaply; the precode constraints recover the stragglers.
Reception overhead concentrates near a small constant and every
droplet costs O(1) work.

The droplet-id mapping is systematic — ids below ``k`` are source
packets verbatim, ids at or above ``k`` are repair droplets — so a
loss-free receiver pays zero decoding work.  Under the hood *every*
droplet is a weakened-distribution row over a pre-solved intermediate
block, so whichever ids a lossy channel deletes, the receiver faces
the same constraints-plus-random-rows ensemble and the overhead stays
constant: the ``p99 - p50`` gap of the decode threshold collapses
compared to LT.

The facade mirrors :class:`~repro.codes.lt.code.LTCode` exactly —
each is a :class:`~repro.codes.base.RatelessCode` (``n = None``,
``encode``, batch decoding) supplying ``encoder`` / ``new_decoder`` —
so every fountain, transfer, protocol and simulation layer drives both
rateless families unchanged.

>>> code = RaptorCode(100, seed=7)
>>> decoder = code.new_decoder()
>>> decoder.add_packets(range(110))
110
>>> decoder.is_complete
True
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.codes.base import RatelessCode
from repro.codes.raptor.cache import cached_raptor_assets
from repro.codes.raptor.decoder import RaptorDecoder, RaptorRankDecoder
from repro.codes.raptor.encoder import RaptorEncoder

__all__ = ["RaptorCode"]


class RaptorCode(RatelessCode):
    """A systematic Raptor code with a fixed, seed-reproducible stream.

    Parameters
    ----------
    k:
        Number of source packets.
    eps:
        Precode expansion rate: ``ceil(eps * k)`` parity intermediates.
        Also sets the outer degree cap ``ceil(4 (1 + eps) / eps)``.
    c, delta:
        Robust-soliton parameters of the outer stage (before weakening).
    seed:
        Shared sender/receiver seed; the same ``(k, parameters, seed)``
        always yields the identical geometry and droplet stream.
    name:
        Optional label used in reports.
    """

    def __init__(self, k: int, eps: float = 0.05, c: float = 0.03,
                 delta: float = 0.1, seed: int = 0,
                 name: str = "raptor"):
        # Geometry (and, lazily, the encode solve plan) comes from the
        # process-wide spec-keyed cache: every block of a transfer, every
        # fork()ed serving copy and every swarm sample of the same
        # ``(k, eps, c, delta, seed)`` shares one build.
        self._assets = cached_raptor_assets(k, eps=eps, c=c, delta=delta,
                                            seed=seed)
        self.geometry = self._assets.geometry
        self.k = self.geometry.k
        self.eps = self.geometry.eps
        self.c = self.geometry.c
        self.delta = self.geometry.delta
        self.seed = self.geometry.seed
        self.name = name
        self.spec = self.geometry.spec

    @property
    def intermediate_count(self) -> int:
        """``k'`` — source packets plus precode parities."""
        return self.geometry.intermediate_count

    # -- encoding --------------------------------------------------------------

    def encoder(self, source: np.ndarray,
                out: Optional[np.ndarray] = None) -> RaptorEncoder:
        """Bind this code to a ``(k, P)`` source block for droplet output.

        The bind replays the geometry's cached solve plan — pure XOR
        waves, byte-identical to the engine pre-solve — so per-block
        encode cost no longer includes a peeling decode.  ``out``
        optionally names the ``(k', P)`` rows the intermediates land in.
        """
        return RaptorEncoder(self.geometry, source,
                             plan=self._assets.encode_plan(), out=out)

    # -- decoding --------------------------------------------------------------

    def new_decoder(self, payload_size: Optional[int] = None
                    ) -> Union[RaptorDecoder, RaptorRankDecoder]:
        """A fresh incremental decoder sharing this code's geometry: the
        peeling engine when it is to recover payloads, a rank test over
        the cached generator when it only answers *when* (structural,
        ``payload_size=None``)."""
        if payload_size is None:
            return RaptorRankDecoder(self.geometry, self._assets.generator)
        return RaptorDecoder(self.geometry, payload_size=payload_size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"RaptorCode(name={self.name!r}, k={self.k}, "
                f"eps={self.eps}, avg_degree={self.average_degree:.2f}, "
                f"seed={self.seed})")
