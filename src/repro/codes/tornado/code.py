"""The :class:`TornadoCode` public API.

Encoding walks the cascade forward (each layer is the XOR of its graph
neighbours in the previous layer, then the cap RS code covers the last
layer); decoding is delegated to :class:`PeelingDecoder`.  Encoding cost
is one XOR per graph edge per payload byte plus the tiny cap encode —
linear in ``n``, which is what makes Tables 2 and 3 come out orders of
magnitude ahead of Reed-Solomon.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.codes.base import (
    BlockEncoder,
    DecoderBackedCode,
    ErasureCode,
    as_packet_block,
)
from repro.codes.tornado.decoder import PeelingDecoder
from repro.codes.tornado.degree import DegreeDistribution, heavy_tail_distribution
from repro.codes.tornado.graph import CascadeStructure, build_cascade
from repro.errors import ParameterError
from repro.gf import gf_matvec_packets
from repro.utils.packed import xor_view
from repro.utils.rng import RngLike, spawn_rng

#: rng stream label for graph construction (kept distinct from any
#: simulation streams the caller may derive from the same seed).
_GRAPH_STREAM = 0x7042


class TornadoCode(DecoderBackedCode, ErasureCode):
    """A Tornado erasure code with a fixed, seed-reproducible structure.

    Parameters
    ----------
    k:
        Number of source packets.
    degree_dist:
        Left degree distribution; defaults to a truncated heavy tail with
        D=8 (the Tornado A regime — see :mod:`repro.codes.tornado.presets`).
    stretch:
        n/k; the paper uses 2 throughout.
    beta:
        Layer shrink factor (0.5 pairs with stretch 2).
    cap_threshold:
        Cascade stops when a layer would be at most this size.
    seed:
        Shared sender/receiver seed; the same (k, parameters, seed) always
        yields the identical code graph.
    name:
        Optional label used in reports ("tornado-a", "tornado-b", ...).
    """

    def __init__(self, k: int,
                 degree_dist: Optional[DegreeDistribution] = None,
                 stretch: float = 2.0,
                 beta: float = 0.5,
                 cap_threshold: int = 128,
                 seed: RngLike = 0,
                 name: str = "tornado",
                 deep_degree_dist: Optional[DegreeDistribution] = None,
                 last_beta: Optional[float] = None,
                 inactivation_limit: int = 0):
        if k <= 0:
            raise ParameterError("k must be positive")
        self.inactivation_limit = int(inactivation_limit)
        self.degree_dist = (degree_dist if degree_dist is not None
                            else heavy_tail_distribution(8))
        self.deep_degree_dist = deep_degree_dist
        self.name = name
        self.seed = seed
        self.structure: CascadeStructure = build_cascade(
            k,
            self.degree_dist,
            stretch=stretch,
            beta=beta,
            cap_threshold=cap_threshold,
            rng=spawn_rng(seed, _GRAPH_STREAM),
            deep_degree_dist=deep_degree_dist,
            last_beta=last_beta,
        )
        self.k = k
        self.n = self.structure.n

    # -- encoding ------------------------------------------------------------

    def _cascade_values(self, source: np.ndarray) -> np.ndarray:
        """Walk the cascade forward; returns ``(n, P)`` values with every
        graph layer filled and the cap rows still zero."""
        source = as_packet_block(source, self.k, dtype=np.uint8)
        payload = source.shape[1]
        st = self.structure
        if st.cap_code.field.dtype.itemsize > 1 and payload % 2:
            raise ParameterError(
                "cap code runs over GF(2^16); payload size must be even")
        values = np.zeros((self.n, payload), dtype=np.uint8)
        values[:self.k] = source
        for gi, graph in enumerate(st.graphs):
            left = values[st.layer_offsets[gi]:
                          st.layer_offsets[gi] + st.layer_sizes[gi]]
            gathered = left[graph.edge_left]
            # One segmented XOR per right node; eight bytes per lane when
            # the payload width packs into uint64 words.
            rights = np.bitwise_xor.reduceat(
                xor_view(gathered), graph.right_indptr[:-1], axis=0)
            if rights.dtype == np.uint64:
                rights = rights.view(np.uint8)
            off = st.layer_offsets[gi + 1]
            values[off:off + graph.right_size] = rights
        return values

    def _fill_cap(self, values: np.ndarray,
                  rows: Union[slice, np.ndarray] = slice(None)) -> None:
        """Write cap rows ``rows`` (positions in the cap; every cap row
        by default) of an ``(n, P)`` encoding from its last graph layer:
        one RS product over those rows of the cap's redundancy matrix,
        its tables in the kernel's scratch.  Past the table build, its
        cost is proportional to the rows it computes."""
        st = self.structure
        cap = st.cap_code
        last = values[st.last_layer_offset:st.cap_offset]
        values[st.cap_offset:][rows] = gf_matvec_packets(
            cap._redundancy_matrix[rows], last.view(cap.field.dtype),
            cap.field).view(np.uint8)

    def encode(self, source: np.ndarray) -> np.ndarray:
        """Compute all ``n`` encoding packets for a ``(k, P)`` source block."""
        values = self._cascade_values(source)
        self._fill_cap(values)
        return values

    def block_encoder(self, source: np.ndarray) -> "_TornadoBlockEncoder":
        """Lazy encoder: cascade up front (cheap XORs), the cap on demand."""
        return _TornadoBlockEncoder(self, source)

    # -- decoding ------------------------------------------------------------

    def new_decoder(self, payload_size: Optional[int] = None) -> PeelingDecoder:
        """A fresh incremental decoder over this code's structure."""
        return PeelingDecoder(self.structure, payload_size=payload_size,
                              inactivation_limit=self.inactivation_limit)

    # -- introspection --------------------------------------------------------

    @property
    def total_edges(self) -> int:
        """Graph edges in the cascade — proportional to encode/decode XORs."""
        return self.structure.total_edges

    @property
    def average_left_degree(self) -> float:
        """Average degree of the first (source) graph."""
        return self.structure.graphs[0].average_left_degree if \
            self.structure.graphs else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TornadoCode(name={self.name!r}, k={self.k}, n={self.n}, "
                f"layers={self.structure.layer_sizes}, "
                f"cap={self.structure.cap_size})")


class _TornadoBlockEncoder(BlockEncoder):
    """Lazy Tornado encoding: eager cascade, the cap on demand.

    The graph layers cost one XOR per edge — linear work that is also
    the input to every cap row, so they are computed up front.  The cap
    is the expensive part (a dense RS product over the last layer, its
    cost proportional to the rows it computes).  A request that touches
    a cap row not yet computed runs one product, straight into the
    encoding, over the cap rows an :meth:`expect_rows` hint named plus
    the ones requested; with no hint pending it computes every cap row
    still missing.  So a carousel that never reaches the cap never pays
    for it, a serve that names its rows before it asks (the file serve)
    pays for those alone, and the encoder holds nothing but its
    ``(n, P)`` values and which cap rows they hold.
    """

    def __init__(self, code: TornadoCode, source: np.ndarray):
        values = code._cascade_values(source)
        super().__init__(code, values[:code.k])
        self._values = values
        #: which cap rows ``_values`` holds
        self._capped = np.zeros(code.structure.cap_size, dtype=bool)
        #: the cap rows of a pending :meth:`expect_rows` hint
        self._expected: Optional[np.ndarray] = None

    def expect_rows(self, rows: np.ndarray) -> None:
        """The next cap fill computes the cap rows among ``rows``."""
        offset = self._code.structure.cap_offset
        rows = np.asarray(rows, dtype=np.int64)
        self._expected = rows[rows >= offset] - offset

    def __getitem__(self, index):
        rows = np.arange(self._code.n)[index]
        offset = self._code.structure.cap_offset
        cap = rows[rows >= offset] - offset
        if not self._capped[cap].all():
            fill = np.flatnonzero(~self._capped)
            expected, self._expected = self._expected, None
            if expected is not None:
                fill = np.union1d(expected, cap)
                fill = fill[~self._capped[fill]]
            self._code._fill_cap(self._values, fill)
            self._capped[fill] = True
        return self._values[rows]
