"""The :class:`LTCode` public API — a true rateless digital fountain.

The paper's carousel *approximates* a digital fountain by cycling a
fixed ``n = stretch * k`` encoding; an LT code removes the ceiling: the
encoder can emit droplet 0, 1, 2, ... forever, each one an XOR of a
soliton-distributed random subset of the source packets, and any
sufficiently large subset of droplets — from anywhere in the stream, in
any order, from any number of concurrent servers — reconstructs the
source.  There is no ``n``, no stretch factor, and no wrap-around
duplicates: ``stretch_factor`` is infinite and distinctness efficiency
is always 1.

Like :class:`~repro.codes.tornado.code.TornadoCode` it only supplies
``new_decoder``; ``decode`` / ``is_decodable`` / ``packets_to_decode``
are the shared :class:`~repro.codes.base.DecoderBackedCode` ones (and
``n = None``, ``stretch_factor``, ``average_degree`` and ``encode`` the
shared :class:`~repro.codes.base.RatelessCode` ones), so every
fountain, protocol and simulation layer drives both code families
unchanged; indices simply mean *droplet ids* instead of positions in a
finite encoding.

>>> code = LTCode(100, seed=7)
>>> decoder = code.new_decoder()
>>> decoder.add_packets(range(115))
115
>>> decoder.is_complete
True
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.codes.base import RatelessCode
from repro.codes.degree import DegreeDistribution
from repro.codes.lt.decoder import LTDecoder
from repro.codes.lt.degree import robust_soliton
from repro.codes.lt.encoder import DropletSpec, LTEncoder
from repro.errors import ParameterError

__all__ = ["LTCode"]


class LTCode(RatelessCode):
    """An LT rateless code with a fixed, seed-reproducible droplet stream.

    Parameters
    ----------
    k:
        Number of source packets.
    degree_dist:
        Droplet degree pmf; defaults to :func:`robust_soliton` with the
        module's tuned ``(c, delta)``.
    seed:
        Shared sender/receiver seed; the same ``(k, parameters, seed)``
        always yields the identical droplet stream.
    inactivation_limit:
        Stall threshold for the decoder's GF(2) fallback.  ``None``
        (default) allows it at any residual size — effectively
        maximum-likelihood decoding, the low-overhead operating point;
        ``0`` is pure peeling, Luby's original decoder.
    name:
        Optional label used in reports.
    """

    def __init__(self, k: int,
                 degree_dist: Optional[DegreeDistribution] = None,
                 seed: int = 0,
                 inactivation_limit: Optional[int] = None,
                 name: str = "lt"):
        if k <= 0:
            raise ParameterError("k must be positive")
        self.k = int(k)
        self.degree_dist = (degree_dist if degree_dist is not None
                            else robust_soliton(self.k))
        self.seed = int(seed)
        self.inactivation_limit = inactivation_limit
        self.name = name
        self.spec = DropletSpec(self.k, self.degree_dist, self.seed)

    # -- encoding --------------------------------------------------------------

    def encoder(self, source: np.ndarray) -> LTEncoder:
        """Bind this code to a ``(k, P)`` source block for droplet output."""
        return LTEncoder(self.spec, source)

    # -- decoding --------------------------------------------------------------

    def new_decoder(self, payload_size: Optional[int] = None) -> LTDecoder:
        """A fresh incremental decoder sharing this code's droplet spec."""
        return LTDecoder(self.spec, payload_size=payload_size,
                         inactivation_limit=self.inactivation_limit)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"LTCode(name={self.name!r}, k={self.k}, "
                f"avg_degree={self.average_degree:.2f}, "
                f"seed={self.seed})")
