"""LT droplet generation: seed-reproducible, unbounded, XOR-on-demand.

The fountain property hinges on sender and receiver agreeing on what
each droplet *is* without shipping its neighbour list: droplet ``i`` is
defined entirely by the shared ``(k, degree distribution, seed)`` triple
plus the droplet id ``i`` carried in the packet header.

The derivation is a counter-mode hash, chosen so that one droplet costs
a handful of integer mixes and a *batch* of droplets vectorises to a few
numpy passes (the scalar and array paths below are bit-identical —
pinned by the differential tests):

* per-droplet words come from the splitmix64 mix of
  ``key + 65536 * id + j`` where ``key`` folds the seed and ``k``;
* word 0 becomes a uniform in ``[0, 1)`` and an inverse-cdf lookup in
  the degree pmf gives the droplet degree;
* words 1..4 key a 4-round Feistel network over a power-of-two domain
  covering ``[0, k)``; walking the permutation at ``x = 0, 1, 2, ...``
  and keeping outputs below ``k`` (cycle walking) yields the neighbour
  indices — distinct by construction, no rejection bookkeeping.

:class:`DropletSpec` is the shared agreement (the LT analogue of the
Tornado :class:`~repro.codes.tornado.graph.CascadeStructure`);
:class:`LTEncoder` binds a spec to an actual ``(k, P)`` source block and
produces payloads by XORing the selected rows on demand — no encoding
table, no stretch-factor ceiling, droplet ids may grow without bound
(up to the uint32 header field).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.codes.base import as_packet_block
from repro.codes.degree import DegreeDistribution
from repro.errors import ParameterError
from repro.utils.packed import xor_view

__all__ = ["DropletSpec", "LTEncoder", "xor_neighbours"]

_MASK64 = (1 << 64) - 1

#: stream label folded into the spec key, separating droplet
#: construction from any simulation streams derived from the same seed.
_DROPLET_STREAM = 0xD809

#: word stride between consecutive droplet ids; ids use words
#: ``key + 65536*id + j`` with ``j`` in [0, 5), so windows never overlap.
_ID_STRIDE = 1 << 16

#: Feistel rounds (4 rounds of an unbalanced mix are ample for the
#: statistical quality a soliton neighbour pick needs).
_ROUNDS = 4


def _splitmix64(x: int) -> int:
    """The splitmix64 finaliser on a python integer (exact 64-bit wrap)."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _splitmix64_np(x: np.ndarray) -> np.ndarray:
    """Vector splitmix64 on uint64 arrays, bit-identical to the scalar."""
    z = x + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


@dataclass(frozen=True)
class DropletSpec:
    """The sender/receiver agreement defining every droplet of a stream.

    Attributes
    ----------
    k:
        Number of source packets.
    degree_dist:
        Droplet degree pmf (typically a robust soliton).
    seed:
        Shared integer seed; the same ``(k, degree_dist, seed)`` triple
        yields the identical droplet sequence on both ends.
    """

    k: int
    degree_dist: DegreeDistribution
    seed: int = 0
    _degree_cdf: np.ndarray = field(init=False, repr=False, compare=False)
    _degree_table: np.ndarray = field(init=False, repr=False, compare=False)
    _key: int = field(init=False, repr=False, compare=False)
    _half_bits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ParameterError("k must be >= 1")
        if self.degree_dist.max_degree > self.k:
            raise ParameterError(
                f"degree support exceeds k={self.k}; truncate the pmf")
        cdf = np.cumsum(np.asarray(self.degree_dist.probabilities,
                                   dtype=float))
        cdf[-1] = 1.0
        object.__setattr__(self, "_degree_cdf", cdf)
        object.__setattr__(self, "_degree_table",
                           np.asarray(self.degree_dist.degrees,
                                      dtype=np.int64))
        key = _splitmix64((int(self.seed) ^ _DROPLET_STREAM) & _MASK64)
        object.__setattr__(self, "_key", _splitmix64(key ^ self.k))
        # Feistel domain 2**(2*half_bits) is the smallest even-bit power
        # of two covering [0, k); cycle walking keeps outputs below k.
        bits = max(1, (self.k - 1).bit_length())
        object.__setattr__(self, "_half_bits", (bits + 1) // 2)

    # -- scalar derivation (one droplet at a time) -----------------------------

    def _word(self, droplet_id: int, j: int) -> int:
        return _splitmix64((self._key + _ID_STRIDE * droplet_id + j)
                           & _MASK64)

    def degree(self, droplet_id: int) -> int:
        """The degree of droplet ``droplet_id`` (first word of its stream)."""
        if droplet_id < 0:
            raise ParameterError("droplet id must be >= 0")
        u = (self._word(droplet_id, 0) >> 11) * 2.0 ** -53
        slot = int(np.searchsorted(self._degree_cdf, u, side="right"))
        slot = min(slot, self._degree_table.size - 1)
        return int(self._degree_table[slot])

    def _permute(self, x: int, keys: Sequence[int]) -> int:
        hb = self._half_bits
        half_mask = (1 << hb) - 1
        left, right = x >> hb, x & half_mask
        for r in range(_ROUNDS):
            f = _splitmix64((right + keys[r]) & _MASK64) >> (64 - hb)
            left, right = right, left ^ f
        return (left << hb) | right

    def neighbours(self, droplet_id: int) -> np.ndarray:
        """Source packet indices XORed into droplet ``droplet_id``.

        Distinct and reproducible: the droplet's keyed Feistel
        permutation is walked from ``x = 0`` upward, keeping the first
        ``degree`` outputs that land inside ``[0, k)``.
        """
        degree = self.degree(droplet_id)
        keys = [self._word(droplet_id, 1 + r) for r in range(_ROUNDS)]
        out = np.empty(degree, dtype=np.int64)
        x = 0
        got = 0
        while got < degree:
            y = self._permute(x, keys)
            x += 1
            if y < self.k:
                out[got] = y
                got += 1
        return out

    # -- batch derivation (the vectorized path) --------------------------------

    def neighbour_block(self, droplet_ids: np.ndarray,
                        specs: Optional[Sequence["DropletSpec"]] = None,
                        member: Optional[np.ndarray] = None
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Neighbour sets of many droplets as a ragged CSR pair.

        Returns ``(flat, indptr)``: droplet ``i``'s neighbours are
        ``flat[indptr[i]:indptr[i + 1]]``, in exactly the order the
        scalar :meth:`neighbours` produces them.

        ``specs`` and ``member`` derive the rows of *sibling* specs in
        the same pass: row ``i`` is droplet ``droplet_ids[i]`` of
        ``specs[member[i]]``.  Siblings must agree with this spec on
        ``k`` and the degree pmf — the same-size blocks of one transfer
        plan, which differ only in seed — so the one thing that varies
        per row is the key.  Without them every row is this spec's.

        One ragged pass: every droplet gets a walk window sized to make
        a shortfall vanishingly rare (acceptance rate is ``k / domain``,
        at least one in four), all windows evaluate through the Feistel
        network as a single flat batch, and per-row acceptance ranks
        place the kept outputs.  A droplet whose window still came up
        short — possible, since acceptance is deterministic, just
        unlikely — falls back to the scalar walk of its own spec; the
        flat pass produces the identical prefix, so outputs stay
        bit-equal either way.
        """
        ids = np.asarray(droplet_ids, dtype=np.int64)
        if ids.size and int(ids.min()) < 0:
            raise ParameterError("droplet id must be >= 0")
        indptr = np.zeros(ids.size + 1, dtype=np.int64)
        if not ids.size:
            return np.empty(0, dtype=np.int64), indptr
        if specs is None:
            key = np.uint64(self._key)
        else:
            if any(spec.k != self.k for spec in specs):
                raise ParameterError("sibling specs must share k")
            key = np.array([spec._key for spec in specs],
                           dtype=np.uint64)[member]
        base = key + ids.astype(np.uint64) * np.uint64(_ID_STRIDE)
        # One splitmix pass covers the degree word (column 0) and the
        # four Feistel round keys.
        words = _splitmix64_np(base[:, None]
                               + np.arange(_ROUNDS + 1, dtype=np.uint64))
        u = (words[:, 0] >> np.uint64(11)) * 2.0 ** -53
        slots = np.searchsorted(self._degree_cdf, u, side="right")
        np.minimum(slots, self._degree_table.size - 1, out=slots)
        degrees = self._degree_table[slots]
        keys = words[:, 1:]
        np.cumsum(degrees, out=indptr[1:])
        flat = np.empty(int(indptr[-1]), dtype=np.int64)
        # The domain holds exactly k valid outputs, so a full-domain walk
        # can never come up short; the expected positions plus a margin
        # proportional to the degree keeps the flat batch small while
        # making fallbacks rare.
        domain = 1 << (2 * self._half_bits)
        per_accept = -(-domain // self.k)
        widths = np.minimum(
            per_accept * (degrees + 4) + (per_accept * degrees >> 2) + 4,
            domain)
        starts = np.cumsum(widths) - widths
        total = int(starts[-1] + widths[-1])
        row_of = np.repeat(np.arange(ids.size), widths)
        xs = (np.arange(total, dtype=np.int64)
              - starts[row_of]).astype(np.uint64)
        hb = self._half_bits
        half_mask = np.uint64((1 << hb) - 1)
        shift = np.uint64(64 - hb)
        left = xs >> np.uint64(hb)
        right = xs & half_mask
        flat_keys = keys[row_of]
        for r in range(_ROUNDS):
            f = _splitmix64_np(right + flat_keys[:, r]) >> shift
            left, right = right, left ^ f
        ys = ((left << np.uint64(hb)) | right).astype(np.int64)
        accept = ys < self.k
        cs = np.cumsum(accept)
        before = cs[starts] - accept[starts]
        rank = cs - before[row_of]
        take = accept & (rank <= degrees[row_of])
        rows_t = row_of[take]
        flat[indptr[rows_t] + rank[take] - 1] = ys[take]
        taken = np.bincount(rows_t, minlength=ids.size)
        for i in np.nonzero(taken < degrees)[0].tolist():
            spec = self if specs is None else specs[int(member[i])]
            flat[indptr[i]:indptr[i + 1]] = spec.neighbours(int(ids[i]))
        return flat, indptr

    @property
    def average_degree(self) -> float:
        """Expected XORs per droplet — the per-packet encode/decode cost."""
        return self.degree_dist.average_degree


#: neighbour passes the droplet kernel runs over every row before the
#: rare heavier droplets (the soliton spike) reduce one at a time.
_LIGHT_DEGREE = 8


def xor_neighbours(inputs: np.ndarray, flat: np.ndarray,
                   indptr: np.ndarray, out: np.ndarray,
                   rows: Optional[np.ndarray] = None) -> None:
    """Write the XOR of ``inputs[flat[indptr[i]:indptr[i + 1]]]`` into
    ``out[rows[i]]`` (``out[i]`` without ``rows``), for every ``i``.

    The vectorized droplet kernel, over a ``(rows, P)`` uint8 block and
    a CSR of non-empty neighbour sets; ``out`` may be any ``(n, P)``
    uint8 view, such as the payload columns of a record array.  Rows are
    sorted by degree, heaviest first, so neighbour ``j`` of every row
    that has one is a prefix: each pass is one gather and one in-place
    XOR (through the uint64 lane view when the width packs).  Soliton
    degrees concentrate at the low end, so a handful of passes covers
    almost every row, and only the rare heavy droplets fall through to
    a per-row reduction — measurably faster than one segmented
    ``reduceat`` over the ragged incidence, whose generic inner loop
    dominates this shape.
    """
    src = xor_view(inputs)
    lens = np.diff(indptr)
    order = np.argsort(-lens, kind="stable")
    starts = indptr[:-1][order]
    lens = lens[order]
    acc = src[flat[starts]]
    light = min(_LIGHT_DEGREE, int(lens[0]))
    for j in range(1, light):
        m = int(np.count_nonzero(lens > j))
        np.bitwise_xor(acc[:m], src[flat[starts[:m] + j]], out=acc[:m])
    for i in range(int(np.count_nonzero(lens > light))):
        acc[i] ^= np.bitwise_xor.reduce(
            src[flat[starts[i] + light:starts[i] + lens[i]]], axis=0)
    out[order if rows is None else rows[order]] = acc.view(np.uint8)


class LTEncoder:
    """Produces droplet payloads for one source block on demand.

    Parameters
    ----------
    spec:
        The shared :class:`DropletSpec`.
    source:
        The ``(k, P)`` source packet block.
    """

    def __init__(self, spec: DropletSpec, source: np.ndarray):
        self.spec = spec
        self.source = as_packet_block(source, spec.k, dtype=np.uint8)

    @property
    def k(self) -> int:
        return self.spec.k

    @property
    def payload_size(self) -> int:
        return int(self.source.shape[1])

    def droplet_payload(self, droplet_id: int) -> np.ndarray:
        """The payload of droplet ``droplet_id``: XOR of its neighbours."""
        neighbours = self.spec.neighbours(droplet_id)
        return np.bitwise_xor.reduce(self.source[neighbours], axis=0)

    def payload_block(self, droplet_ids: Sequence[int]) -> np.ndarray:
        """Payloads for many droplets as a ``(len(ids), P)`` block: every
        neighbour set derived in one batch, XORed by
        :func:`xor_neighbours`."""
        ids = np.asarray(droplet_ids, dtype=np.int64)
        out = np.empty((ids.size, self.payload_size), dtype=np.uint8)
        if ids.size:
            xor_neighbours(self.source, *self.spec.neighbour_block(ids), out)
        return out

    def droplets(self, start: int = 0) -> Iterator[np.ndarray]:
        """An endless stream of payloads from ``start`` — the fountain."""
        droplet_id = start
        while True:
            yield self.droplet_payload(droplet_id)
            droplet_id += 1
