"""Systematic Reed-Solomon erasure codes (the paper's baseline).

Two constructions, matching the "Vandermonde" and "Cauchy" columns of
Tables 2 and 3:

* :func:`vandermonde_code` — Rizzo's construction [16]: a Vandermonde
  generator matrix systematised by inverting its top square.
* :func:`cauchy_code` — Bloemer et al.'s construction [2]: identity on top
  of a Cauchy matrix, every square submatrix of which is nonsingular.

Both are MDS: *any* k of the n encoding packets reconstruct the source.
That is the ideal digital-fountain reception property (Section 4) — their
problem is cost.  Encoding is O(k * l * P) field operations and decoding
O(k * x * P) where x is the number of missing source packets, exactly the
scaling the paper reports, so these implementations genuinely exhibit the
slowness Tornado codes remove.

The decoder uses the standard systematic-code optimisation: received
source packets are copied through, and only the ``x`` missing source
packets are solved for using ``x`` redundant packets: reduce them by the
known source packets, invert the x-by-x system, apply the inverse.  The
two matrix-times-packets products, O(x * k * P) together, are the whole
cost for the Cauchy construction, whose submatrix inverse is a closed
form in O(x^2) (:func:`repro.gf.matrix.cauchy_inverse`); only the
Vandermonde construction still eliminates, O(x^3).  There is one decode
body, array in and array out (:meth:`ReedSolomonCode.decode_rows`);
:meth:`ReedSolomonCode.decode` is its mapping-keyed spelling.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

import numpy as np

from repro.codes.base import BlockEncoder, ErasureCode, as_packet_block
from repro.errors import DecodeFailure, ParameterError
from repro.gf import (
    GF256,
    GF65536,
    cauchy_inverse,
    cauchy_matrix,
    gf_invert,
    gf_matvec_packets,
    gf256_matvec_cached,
    gf256_packet_tables,
    systematize,
    vandermonde_matrix,
)
from repro.gf.field import BinaryExtensionField


class _RSBlockEncoder(BlockEncoder):
    """Row-lazy systematic RS encoding.

    Source rows are served straight from the source block; redundancy
    rows are products of single redundancy-matrix rows with the source,
    computed in batches on first request and cached.  Over GF(2^8) the
    source's nibble product tables (32x the source bytes) are built once
    and reused across batches, so scattered row requests cost the same
    per row as one monolithic encode; they are dropped as soon as every
    redundancy row is cached.  After an :meth:`expect_rows` hint, the
    next batch computes the hinted rows with it, in one product whose
    tables live in the kernel's scratch: a serve that names its rows
    before it asks holds no tables at all.
    """

    _code: "ReedSolomonCode"

    def __init__(self, code: "ReedSolomonCode", source: np.ndarray):
        source = as_packet_block(source, code.k, dtype=code.field.dtype)
        super().__init__(code, source)
        ell = code.n - code.k
        self._redundant = np.zeros((ell, source.shape[1]),
                                   dtype=code.field.dtype)
        self._have = np.zeros(ell, dtype=bool)
        self._tables: Optional[tuple] = None
        #: the redundancy rows (0-based) of a pending expect_rows hint
        self._expected: Optional[np.ndarray] = None

    def expect_rows(self, rows: np.ndarray) -> None:
        """The next batch computes the redundancy rows among ``rows``."""
        rows = np.asarray(rows, dtype=np.int64)
        self._expected = rows[rows >= self._code.k] - self._code.k

    def _ensure_redundant(self, rows: np.ndarray) -> None:
        """Compute-and-cache the redundancy rows (0-based) not yet held."""
        missing = np.unique(rows[~self._have[rows]])
        if missing.size == 0:
            return
        code = self._code
        expected, self._expected = self._expected, None
        if expected is not None:
            missing = np.union1d(missing, expected)
            missing = missing[~self._have[missing]]
        sub = code._redundancy_matrix[missing]
        if (self._tables is None and expected is None
                and getattr(code.field, "_mul_table", None) is not None):
            self._tables = gf256_packet_tables(self._source)
        if self._tables is not None:
            self._redundant[missing] = gf256_matvec_cached(sub, self._tables)
        else:
            self._redundant[missing] = gf_matvec_packets(
                sub, self._source, code.field)
        self._have[missing] = True
        if self._have.all():
            self._tables = None

    def __getitem__(self, index):
        k = self._code.k
        rows = np.arange(self._code.n)[index]
        red = rows >= k
        self._ensure_redundant(rows[red] - k)
        if np.ndim(rows) == 0:
            return self._redundant[rows - k] if red else self._source[rows]
        out = np.empty(rows.shape + self._source.shape[1:],
                       dtype=self._source.dtype)
        out[~red] = self._source[rows[~red]]
        out[red] = self._redundant[rows[red] - k]
        return out


def default_field_for(n: int) -> BinaryExtensionField:
    """Smallest supported field that can host ``n`` codeword positions."""
    if n <= 256:
        return GF256
    if n <= 65536:
        return GF65536
    raise ParameterError(f"n={n} exceeds GF(2^16) codeword positions")


class ReedSolomonCode(ErasureCode):
    """Systematic MDS erasure code defined by a redundancy matrix.

    Parameters
    ----------
    k, n:
        Source and encoding packet counts; ``k < n <= field.order``.
    construction:
        ``"cauchy"`` or ``"vandermonde"``.
    field:
        Field override; defaults to the smallest field that fits ``n``.
    """

    def __init__(self, k: int, n: int, construction: str = "cauchy",
                 field: Optional[BinaryExtensionField] = None):
        if k <= 0 or n <= k:
            raise ParameterError(f"need 0 < k < n, got k={k}, n={n}")
        self.field = field if field is not None else default_field_for(n)
        if n > self.field.order:
            raise ParameterError(
                f"n={n} too large for GF(2^{self.field.m})")
        self.k = k
        self.n = n
        self.construction = construction
        self._redundancy_matrix = self._build_redundancy_matrix()

    def _build_redundancy_matrix(self) -> np.ndarray:
        """The (l x k) matrix mapping source packets to redundant packets."""
        ell = self.n - self.k
        if self.construction == "cauchy":
            return cauchy_matrix(ell, self.k, self.field)
        if self.construction == "vandermonde":
            generator = vandermonde_matrix(self.n, self.k, self.field)
            return systematize(generator, self.k, self.field)[self.k:, :]
        raise ParameterError(
            f"unknown construction {self.construction!r}; "
            "expected 'cauchy' or 'vandermonde'")

    # -- encoding ------------------------------------------------------------

    def encode(self, source: np.ndarray) -> np.ndarray:
        """Systematic encoding: source packets followed by redundancy."""
        source = as_packet_block(source, self.k, dtype=self.field.dtype)
        redundant = gf_matvec_packets(
            self._redundancy_matrix, source, self.field)
        return np.concatenate([source, redundant], axis=0)

    def block_encoder(self, source: np.ndarray) -> _RSBlockEncoder:
        """Row-lazy encoder: redundancy rows computed on first request."""
        return _RSBlockEncoder(self, source)

    # -- decoding ------------------------------------------------------------

    def is_decodable(self, indices: Iterable[int]) -> bool:
        """MDS reception property: any k distinct encoding packets suffice."""
        distinct = {i for i in indices if 0 <= i < self.n}
        return len(distinct) >= self.k

    def decode(self, received: Mapping[int, np.ndarray]) -> np.ndarray:
        """Reconstruct the source block from >= k received packets
        (:meth:`decode_rows` over the mapping's in-range keys)."""
        indices = np.fromiter(
            (i for i in sorted(received) if 0 <= i < self.n), dtype=np.int64)
        if indices.size < self.k:
            # before the rows are stacked: nothing to stack when empty
            raise DecodeFailure(
                f"need {self.k} packets, got {indices.size}",
                missing=self.k - int(indices.size))
        return self.decode_rows(
            indices, np.stack([received[i] for i in indices.tolist()]))

    def decode_rows(self, indices: np.ndarray,
                    payloads: np.ndarray) -> np.ndarray:
        """Reconstruct the ``(k, P)`` source block from an array of
        distinct codeword positions and the ``(m, P)`` block holding
        their packets, row for row (any order; ascending costs no
        gather).

        Cost model (paper Table 1): with ``x`` missing source packets,
        reducing the first ``x`` redundant rows by the known source
        packets costs O(x * (k - x) * P), inverting the x-by-x system
        O(x^2) for the Cauchy construction (:func:`cauchy_inverse`; the
        Vandermonde one pays Gauss-Jordan's O(x^3)) and applying the
        inverse O(x^2 * P); when nothing is missing this is a pure copy.
        """
        indices = np.asarray(indices, dtype=np.int64)
        payloads = np.asarray(payloads, dtype=self.field.dtype)
        if payloads.ndim != 2 or payloads.shape[0] != indices.size:
            raise ParameterError(
                f"{indices.size} indices for a payload block of shape "
                f"{payloads.shape}")
        steps = np.diff(indices)
        if np.any(steps <= 0):
            order = np.argsort(indices, kind="stable")
            indices, payloads = indices[order], payloads[order]
            steps = np.diff(indices)
        if indices.size and (indices[0] < 0 or indices[-1] >= self.n
                             or not steps.all()):
            raise ParameterError(
                f"codeword positions must be distinct and in [0, {self.n})")
        if indices.size < self.k:
            raise DecodeFailure(
                f"need {self.k} packets, got {indices.size}",
                missing=self.k - int(indices.size))
        # Ascending order puts the received source rows first.
        held = int(np.searchsorted(indices, self.k))
        have_source = indices[:held]
        out = np.empty((self.k, payloads.shape[1]), dtype=self.field.dtype)
        out[have_source] = payloads[:held]
        x = self.k - held
        if x == 0:
            return out
        present = np.zeros(self.k, dtype=bool)
        present[have_source] = True
        missing = np.nonzero(~present)[0]
        rows = indices[held:held + x] - self.k
        # Reduce: subtract the contribution of known source packets from
        # each used redundant packet (XOR since the field has char. 2).
        reduced = payloads[held:held + x]
        if held:
            reduced = reduced ^ gf_matvec_packets(
                self._redundancy_matrix[np.ix_(rows, have_source)],
                payloads[:held], self.field)
        # Solve the x-by-x system for the missing source packets.
        if self.construction == "cauchy":
            inverse = cauchy_inverse(rows, (self.n - self.k) + missing,
                                     self.field)
        else:
            inverse = gf_invert(
                self._redundancy_matrix[np.ix_(rows, missing)], self.field)
        out[missing] = gf_matvec_packets(inverse, reduced, self.field)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ReedSolomonCode(k={self.k}, n={self.n}, "
                f"construction={self.construction!r}, field={self.field!r})")


def cauchy_code(k: int, n: Optional[int] = None,
                field: Optional[BinaryExtensionField] = None) -> ReedSolomonCode:
    """Cauchy RS code; ``n`` defaults to stretch factor 2 as in the paper."""
    return ReedSolomonCode(k, n if n is not None else 2 * k,
                           construction="cauchy", field=field)


def vandermonde_code(k: int, n: Optional[int] = None,
                     field: Optional[BinaryExtensionField] = None) -> ReedSolomonCode:
    """Vandermonde RS code; ``n`` defaults to stretch factor 2."""
    return ReedSolomonCode(k, n if n is not None else 2 * k,
                           construction="vandermonde", field=field)
