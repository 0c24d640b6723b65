"""Finite-field arithmetic substrate.

Reed-Solomon erasure codes — both the Vandermonde construction the paper
cites from Rizzo [16] and the Cauchy construction from Bloemer et al. [2] —
need arithmetic over GF(2^m).  Two field sizes cover every use in the
paper's evaluation:

* ``GF256``  (m=8):  blocks of interleaved codes (k <= 128, n = 2k <= 256)
  and the Tornado cascade's cap code.
* ``GF65536`` (m=16): whole-file Reed-Solomon codes for Tables 2 and 3,
  where a 16 MB file at 1 KB packets gives k = 16384 and n = 32768 > 256.

The fields are exposed as module-level singletons because their log/exp
tables are immutable and moderately expensive to build.
"""

from repro.gf.field import BinaryExtensionField
from repro.gf.gf256 import GF256
from repro.gf.gf65536 import GF65536
from repro.gf.matrix import (
    gf_eye,
    gf_matmul,
    gf_matvec_packets,
    gf_invert,
    gf_solve,
    gf256_matvec_cached,
    gf256_packet_tables,
    vandermonde_matrix,
    cauchy_matrix,
    cauchy_inverse,
    systematize,
)

__all__ = [
    "BinaryExtensionField",
    "GF256",
    "GF65536",
    "gf_eye",
    "gf_matmul",
    "gf_matvec_packets",
    "gf_invert",
    "gf_solve",
    "gf256_matvec_cached",
    "gf256_packet_tables",
    "vandermonde_matrix",
    "cauchy_matrix",
    "cauchy_inverse",
    "systematize",
]
