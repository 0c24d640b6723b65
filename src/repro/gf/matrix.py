"""Dense matrix algebra over GF(2^m).

Implements exactly what systematic Reed-Solomon erasure codes need:

* Vandermonde and Cauchy generator-matrix constructions,
* Gauss-Jordan inversion / solving with vectorised row operations, and
  the closed-form inverse of a Cauchy submatrix (no elimination),
* systematisation (Rizzo's trick of right-multiplying a Vandermonde
  matrix by the inverse of its top square so the first k encoding packets
  equal the source packets),
* matrix-times-packet-block products, the encode/decode workhorse.

Matrices are plain numpy integer arrays whose entries are field elements;
the field instance travels alongside as an explicit argument — no global
state, following the "explicit is better than implicit" rule.
"""

from __future__ import annotations

import threading
from typing import Optional, Tuple

import numpy as np

from repro.errors import ParameterError, SingularMatrixError
from repro.gf.field import BinaryExtensionField


def gf_eye(n: int, field: BinaryExtensionField) -> np.ndarray:
    """Identity matrix over the field."""
    return np.eye(n, dtype=field.dtype)


def vandermonde_matrix(rows: int, cols: int,
                       field: BinaryExtensionField) -> np.ndarray:
    """Vandermonde matrix V[i, j] = x_i^j with distinct points x_i.

    Any ``cols`` rows of the matrix are linearly independent (det =
    prod of point differences, nonzero for distinct points), which is
    the MDS property an erasure code needs.  Points are simply ``x_i =
    i`` — zero included, its row being (1, 0, ..., 0) — so the full
    field supports ``rows == field.order`` codeword positions.
    """
    if rows > field.order:
        raise ParameterError(
            f"Vandermonde needs {rows} distinct points; "
            f"GF(2^{field.m}) has only {field.order}")
    points = np.arange(rows, dtype=np.int64)
    mat = np.empty((rows, cols), dtype=field.dtype)
    col = np.ones(rows, dtype=np.int64)
    for j in range(cols):
        mat[:, j] = col.astype(field.dtype)
        col = field.mul_vec(col, points).astype(np.int64)
    return mat


def cauchy_matrix(rows: int, cols: int,
                  field: BinaryExtensionField) -> np.ndarray:
    """Cauchy matrix C[i, j] = 1 / (x_i + y_j) with disjoint x and y sets.

    Every square submatrix of a Cauchy matrix is nonsingular, giving the
    MDS property directly (Bloemer et al. [2]).  We use
    ``x_i = i`` and ``y_j = rows + j`` which are disjoint by construction.
    """
    if rows + cols > field.order:
        raise ParameterError(
            f"Cauchy matrix needs {rows + cols} distinct elements; "
            f"GF(2^{field.m}) has only {field.order}")
    xs = np.arange(rows, dtype=np.int64)
    ys = np.arange(rows, rows + cols, dtype=np.int64)
    denom = xs[:, None] ^ ys[None, :]
    return field.inv_vec(denom)


def cauchy_inverse(xs: np.ndarray, ys: np.ndarray,
                   field: BinaryExtensionField) -> np.ndarray:
    """Inverse of the square Cauchy matrix ``C[a, b] = 1 / (xs[a] + ys[b])``.

    Closed form (Bloemer et al. [2]), no elimination::

        inv[i, j] = prod_l(ys[i] + xs[l]) * prod_l(xs[j] + ys[l])
                    / ((xs[j] + ys[i]) * prod_{l != j}(xs[j] + xs[l])
                                       * prod_{l != i}(ys[i] + ys[l]))

    In the log domain the four products are row / column sums of three
    log tables and the whole inverse is one ``exp`` gather: O(x^2) for
    an x-by-x matrix, where Gauss-Jordan is O(x^3) in x pivot steps.
    ``xs`` and ``ys`` must each be duplicate-free and share no element
    (what makes ``C`` a Cauchy matrix); for a submatrix of
    :func:`cauchy_matrix` ``(ell, k)`` pass ``xs = rows`` and
    ``ys = ell + cols``.
    """
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ParameterError("a Cauchy matrix is inverted over equally many "
                             "row and column points")
    x = xs.size
    xy = xs[:, None] ^ ys[None, :]
    xx = xs[:, None] ^ xs[None, :]
    yy = ys[:, None] ^ ys[None, :]
    if (np.count_nonzero(xy) != x * x
            or np.count_nonzero(xx) + np.count_nonzero(yy) != 2 * x * (x - 1)):
        raise SingularMatrixError(
            "Cauchy points must be distinct and the two sets disjoint")
    log = field._log
    # log[0] reads 0, so the excluded l == j / l == i terms (the zero
    # diagonals of xs + xs and ys + ys) drop out of the sums unaided.
    log_xy = log[xy]
    row = log_xy.sum(axis=1) - log[xx].sum(axis=1)
    col = log_xy.sum(axis=0) - log[yy].sum(axis=1)
    exponent = col[:, None] + row[None, :] - log_xy.T
    return field._exp[exponent % (field.order - 1)].astype(field.dtype)


def gf_matmul(a: np.ndarray, b: np.ndarray,
              field: BinaryExtensionField) -> np.ndarray:
    """Matrix product over the field.

    Vectorised along rows of ``a``: one log/exp gather per column of ``b``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[1] != b.shape[0]:
        raise ParameterError(f"shape mismatch {a.shape} x {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=field.dtype)
    for j in range(b.shape[0]):
        col = a[:, j]
        if not np.any(col):
            continue
        prod = field.mul_vec(col[:, None], b[j][None, :])
        np.bitwise_xor(out, prod, out=out)
    return out


#: 4-bit Gray-code visit order and, per step, which bit flipped — drives
#: the XOR chain that turns 4 bit-plane products into all 16 nibble
#: products with one vector XOR each.
_GRAY4 = [i ^ (i >> 1) for i in range(16)]
_GRAY4_BIT = [((_GRAY4[i] ^ _GRAY4[i - 1]).bit_length() - 1)
              for i in range(1, 16)]


#: Per-byte masks and the reduction byte for in-lane GF(2^8) doubling:
#: x * v on eight packed bytes at once — shift the low seven bits of
#: every byte left, then XOR 0x1D (x^8 mod the field polynomial 0x11D)
#: into bytes whose msb was set.
_LANE_LO7 = np.uint64(0x7F7F7F7F7F7F7F7F)
_LANE_MSB = np.uint64(0x8080808080808080)
_POLY_RED = np.uint64(0x1D)
_ONE64 = np.uint64(1)
_SEVEN64 = np.uint64(7)


def _nibble_prep(packets: np.ndarray) -> Tuple[np.ndarray, int, int, int]:
    """Byte-cast, lane-pad and compact ``packets`` for uint64 lane views."""
    packets = np.asarray(packets, dtype=np.uint8)
    cols, w = packets.shape
    lanes = (w + 7) // 8
    wp = lanes * 8
    if wp != w or not packets.flags.c_contiguous:
        padded = np.zeros((cols, wp), dtype=np.uint8)
        padded[:, :w] = packets
        packets = padded
    return packets, cols, w, lanes


def _nibble_fill(packets: np.ndarray, planes: np.ndarray,
                 t_lo: np.ndarray, t_hi: np.ndarray) -> None:
    """Fill preallocated bit-plane and nibble-table buffers in place."""
    planes[0] = packets.view(np.uint64)
    for b in range(7):
        v = planes[b]
        np.left_shift(v & _LANE_LO7, _ONE64, out=planes[b + 1])
        planes[b + 1] ^= ((v & _LANE_MSB) >> _SEVEN64) * _POLY_RED
    # The Gray chain writes every entry except index 0, so only that
    # one needs zeroing — no full-table memset.
    t_lo[0] = 0
    t_hi[0] = 0
    for i in range(1, 16):
        g, prev, b = _GRAY4[i], _GRAY4[i - 1], _GRAY4_BIT[i - 1]
        np.bitwise_xor(t_lo[prev], planes[b], out=t_lo[g])
        np.bitwise_xor(t_hi[prev], planes[4 + b], out=t_hi[g])


#: Per-thread reused buffers for the nibble kernels.  Freshly allocated
#: multi-MB tables cost more in page faults than in arithmetic, so
#: build-apply-discard calls recycle one scratch set per thread (single
#: entry, grown to the largest call seen, never shrunk).
#: Thread-local because the UDP transport decodes on receiver threads
#: while a sender thread is still encoding; a shared buffer would let
#: one thread's gather scribble over another's mid-matvec.
_SCRATCH = threading.local()


def _nibble_scratch(cols: int, lanes: int) -> tuple:
    """Bit-plane and nibble-table buffers for ``cols`` packets of
    ``lanes`` uint64 lanes: contiguous leading views of flat per-thread
    buffers, kept by capacity — a call alternating between shapes (a
    Reed-Solomon decode's two products) reuses them rather than
    reallocating at every change."""
    size = cols * lanes
    bufs = getattr(_SCRATCH, "nibble", None)
    if bufs is None or bufs[0].size < 8 * size:
        _SCRATCH.nibble = bufs = (np.empty(8 * size, dtype=np.uint64),
                                  np.empty(16 * size, dtype=np.uint64),
                                  np.empty(16 * size, dtype=np.uint64))
    return tuple(buf[:planes * size].reshape(planes, cols, lanes)
                 for buf, planes in zip(bufs, (8, 16, 16)))


def gf256_packet_tables(packets: np.ndarray) -> tuple:
    """Precompute per-packet nibble product tables for GF(2^8) matvecs.

    Scalar multiplication is GF(2)-linear in the bits of the scalar, so
    the 256 possible products of a packet are subset-XORs of its 8
    bit-plane products ``x^b * packet``.  The bit planes come from seven
    in-lane doublings (no table gathers); splitting the scalar into
    nibbles then needs only two 16-entry product tables per packet, each
    built with a Gray-code XOR chain.

    The result is an opaque handle for :func:`gf256_matvec_cached`,
    owning its buffers — valid indefinitely.  The split exists so a
    caller applying *many* small coefficient blocks to the same packets
    (a lazily materialised encoding handing out rows on demand) pays the
    table build once, not per batch.
    """
    packets, cols, w, lanes = _nibble_prep(packets)
    planes = np.empty((8, cols, lanes), dtype=np.uint64)
    t_lo = np.empty((16, cols, lanes), dtype=np.uint64)
    t_hi = np.empty((16, cols, lanes), dtype=np.uint64)
    _nibble_fill(packets, planes, t_lo, t_hi)
    return t_lo, t_hi, w


def _gather_buf(count: int) -> np.ndarray:
    """Per-thread uint64 gather destination for :func:`gf256_matvec_cached`
    (grown on demand, never shrunk — capped near the 1 MB chunk budget)."""
    buf = getattr(_SCRATCH, "gather", None)
    if buf is None or buf.size < count:
        _SCRATCH.gather = buf = np.empty(count, dtype=np.uint64)
    return buf[:count]


def gf256_matvec_cached(mat: np.ndarray, tables: tuple,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Apply a GF(2^8) matrix to packets pre-tabled by
    :func:`gf256_packet_tables`.

    The inner gather moves 8-byte uint64 lanes per matrix entry instead
    of single bytes — the same trick SIMD RS coders play with PSHUFB,
    expressed as ``np.take`` into a reused scratch chunk (fresh numpy
    temporaries would cost more in page faults than the XORs do).  Cost
    is proportional to ``mat.shape[0]``, so handing out a few encoding
    rows at a time is as cheap per row as one big matvec.
    """
    t_lo, t_hi, w = tables
    mat = np.asarray(mat, dtype=np.uint8)
    rows, cols = mat.shape
    lanes = t_lo.shape[2]
    if out is None:
        out = np.empty((rows, w), dtype=np.uint8)
    flat_lo = t_lo.reshape(-1, lanes)
    flat_hi = t_hi.reshape(-1, lanes)
    # Transposed (column-major) flat table indices so the XOR-reduce
    # runs over the leading axis (sequential passes over a
    # cache-resident accumulator).  Entry (c, r) of the index array
    # addresses nibble-table row ``nibble * cols + c`` of packet c.
    col_base = np.arange(cols, dtype=np.intp)[:, None]
    idx_lo = (mat & 0x0F).astype(np.intp).T * cols + col_base
    idx_hi = (mat >> 4).astype(np.intp).T * cols + col_base
    out64 = np.zeros((rows, lanes), dtype=np.uint64)
    # Chunk columns so each gathered intermediate stays cache-resident
    # (~1 MB); the XOR-reduce then re-reads it from cache, not DRAM.
    step = max(1, (1 << 20) // max(1, rows * lanes * 8))
    for j in range(0, cols, step):
        end = min(j + step, cols)
        buf = _gather_buf((end - j) * rows * lanes)
        for flat, idx in ((flat_lo, idx_lo), (flat_hi, idx_hi)):
            # mode='clip' skips the bounds-checked buffered path (the
            # nibble indices are in range by construction).
            gathered = np.take(flat, idx[j:end].reshape(-1), axis=0,
                               out=buf.reshape(-1, lanes), mode="clip")
            out64 ^= np.bitwise_xor.reduce(
                gathered.reshape(end - j, rows, lanes), axis=0)
    out[:] = out64.view(np.uint8)[:, :w]
    return out


def _gf256_matvec_nibble(mat: np.ndarray, packets: np.ndarray,
                         out: np.ndarray) -> np.ndarray:
    """One-shot GF(2^8) nibble-table matvec (build tables, apply, drop).

    Unlike :func:`gf256_packet_tables` the tables live in module scratch
    buffers, reused across calls — the tables only exist between the
    fill and the apply below, so recycling their pages is free speed.
    """
    packets, cols, w, lanes = _nibble_prep(packets)
    planes, t_lo, t_hi = _nibble_scratch(cols, lanes)
    _nibble_fill(packets, planes, t_lo, t_hi)
    return gf256_matvec_cached(mat, (t_lo, t_hi, w), out)


def gf_matvec_packets(mat: np.ndarray, packets: np.ndarray,
                      field: BinaryExtensionField) -> np.ndarray:
    """Apply ``mat`` (r x c) to a block of ``c`` packets, giving ``r`` packets.

    ``packets`` has shape ``(c, P)`` with P symbols per packet.  This is
    the encode/decode kernel whose cost is O(r * c * P) — the very cost
    the paper's Tables 2/3 show growing quadratically for Reed-Solomon.
    """
    mat = np.asarray(mat)
    packets = np.asarray(packets)
    if mat.shape[1] != packets.shape[0]:
        raise ParameterError(
            f"matrix has {mat.shape[1]} columns but {packets.shape[0]} packets given")
    out = np.zeros((mat.shape[0], packets.shape[1]), dtype=field.dtype)
    table = getattr(field, "_mul_table", None)
    if table is not None and mat.shape[0] >= 8 and mat.shape[1] > 0:
        return _gf256_matvec_nibble(mat, packets, out)
    if table is not None:
        # GF(2^8), few output rows: per matrix column, a (rows, 256)
        # row-select then a width-sized column gather, XOR-accumulated.
        # Keeps every intermediate uint8-sized.
        matl = mat.astype(np.intp)
        pk = packets.astype(np.intp)
        for j in range(mat.shape[1]):
            out ^= np.take(table[matl[:, j]], pk[j], axis=1)
        return out
    # Wider fields: hoist the log gathers out of the loop and rely
    # on the zero-sentinel tables — one int add plus one
    # width-native exp gather per entry, no masking passes.
    # Columns are processed in chunks sized to keep the 3-D gather
    # under ~4 MB; zero matrix entries land in the zero tail of the
    # exp table, so the XOR-reduce over a chunk needs no filtering.
    logm = field._log_z[mat.astype(np.int64)]
    logp = field._log_z[packets.astype(np.int64)]
    width = packets.shape[1]
    step = max(1, (4 << 20) // max(1, mat.shape[0] * width))
    for j in range(0, mat.shape[1], step):
        hi = min(j + step, mat.shape[1])
        prod = field._exp_z[logm[:, j:hi, None] + logp[None, j:hi]]
        out ^= np.bitwise_xor.reduce(prod, axis=1)
    return out


def _eliminate(aug: np.ndarray, n: int, field: BinaryExtensionField) -> np.ndarray:
    """Gauss-Jordan elimination of the left n columns of ``aug`` (in place)."""
    rows = aug.shape[0]
    table = getattr(field, "_mul_table", None)
    for col in range(n):
        pivot = -1
        for r in range(col, rows):
            if aug[r, col]:
                pivot = r
                break
        if pivot < 0:
            raise SingularMatrixError(f"matrix singular at column {col}")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        inv = field.inv(int(aug[col, col]))
        if table is not None:
            # GF(2^8): index the product table directly and skip the
            # nonzero-row bookkeeping — zero factors produce all-zero
            # product rows, and XORing those in is a no-op.
            aug[col] = table[inv][aug[col]]
            factors = aug[:, col].astype(np.intp)
            factors[col] = 0
            aug ^= np.take(table[factors], aug[col].astype(np.intp),
                           axis=1)
            continue
        aug[col] = field.scalar_mul_vec(inv, aug[col])
        factors = aug[:, col].copy()
        factors[col] = 0
        nz = np.nonzero(factors)[0]
        if nz.size:
            prod = field.mul_vec(factors[nz][:, None], aug[col][None, :])
            aug[nz] ^= prod
    return aug


def gf_invert(mat: np.ndarray, field: BinaryExtensionField) -> np.ndarray:
    """Matrix inverse via Gauss-Jordan; raises on singular input."""
    mat = np.asarray(mat)
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ParameterError("only square matrices can be inverted")
    aug = np.concatenate([mat.astype(field.dtype), gf_eye(n, field)], axis=1)
    _eliminate(aug, n, field)
    return aug[:, n:].copy()


def gf_solve(mat: np.ndarray, rhs: np.ndarray,
             field: BinaryExtensionField) -> np.ndarray:
    """Solve ``mat @ x = rhs`` where rhs is a block of packets ``(n, P)``.

    Inverts the n-by-n system first and hands the packet width to
    :func:`gf_matvec_packets`: eliminating an ``[A | rhs]`` augment
    would drag the full width through every row operation.
    """
    mat = np.asarray(mat)
    rhs = np.asarray(rhs)
    if rhs.shape[0] != mat.shape[0]:
        raise ParameterError("right-hand side row count mismatch")
    return gf_matvec_packets(gf_invert(mat, field),
                             rhs.astype(field.dtype), field)


def systematize(generator: np.ndarray, k: int,
                field: BinaryExtensionField) -> np.ndarray:
    """Turn an (n x k) MDS generator into systematic form.

    Right-multiplies by the inverse of the top k x k square so the first k
    output symbols are the source symbols verbatim — Rizzo's construction
    for Vandermonde-based RS erasure codes [16].  The result still has the
    MDS property because column operations preserve it.
    """
    generator = np.asarray(generator)
    if generator.shape[0] < k or generator.shape[1] != k:
        raise ParameterError("generator must be (n x k) with n >= k")
    top_inv = gf_invert(generator[:k, :], field)
    systematic = gf_matmul(generator, top_inv, field)
    # Clean numerical-noise-free identity (exact arithmetic, but the
    # elimination may leave the top block only approximately triangularised
    # in ordering; enforce exact identity).
    systematic[:k, :] = gf_eye(k, field)
    return systematic


def is_identity(mat: np.ndarray) -> bool:
    """True when ``mat`` equals the identity matrix."""
    mat = np.asarray(mat)
    n = mat.shape[0]
    return mat.shape == (n, n) and bool(np.all(mat == np.eye(n, dtype=mat.dtype)))
