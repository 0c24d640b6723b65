"""Matrix algebra over GF(2^m): inversion, solving, MDS constructions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError, SingularMatrixError
from repro.gf import (
    GF256,
    GF65536,
    cauchy_inverse,
    cauchy_matrix,
    gf_eye,
    gf_invert,
    gf_matmul,
    gf_matvec_packets,
    gf_solve,
    systematize,
    vandermonde_matrix,
)
from repro.gf.matrix import is_identity
from tests._oracles import gf2_oracle_solve


def random_invertible(n, field, rng):
    """Rejection-sample an invertible matrix."""
    while True:
        mat = rng.integers(0, field.order, size=(n, n)).astype(field.dtype)
        try:
            gf_invert(mat, field)
            return mat
        except SingularMatrixError:
            continue


@pytest.mark.parametrize("field", [GF256, GF65536], ids=["gf256", "gf65536"])
def test_invert_roundtrip(field):
    rng = np.random.default_rng(0)
    mat = random_invertible(8, field, rng)
    inv = gf_invert(mat, field)
    assert is_identity(gf_matmul(mat, inv, field))
    assert is_identity(gf_matmul(inv, mat, field))


def test_invert_singular_raises():
    mat = np.array([[1, 2], [1, 2]], dtype=np.uint8)
    with pytest.raises(SingularMatrixError):
        gf_invert(mat, GF256)


def test_invert_requires_square():
    with pytest.raises(ParameterError):
        gf_invert(np.zeros((2, 3), dtype=np.uint8), GF256)


def test_solve_matches_invert_multiply():
    rng = np.random.default_rng(1)
    field = GF256
    mat = random_invertible(6, field, rng)
    rhs = rng.integers(0, 256, size=(6, 10)).astype(np.uint8)
    x = gf_solve(mat, rhs, field)
    assert np.array_equal(gf_matvec_packets(mat, x, field), rhs)


@given(n=st.integers(min_value=1, max_value=12))
@settings(max_examples=12, deadline=None)
def test_vandermonde_any_square_submatrix_invertible(n):
    field = GF256
    mat = vandermonde_matrix(2 * n, n, field)
    rng = np.random.default_rng(n)
    rows = rng.choice(2 * n, size=n, replace=False)
    gf_invert(mat[rows], field)  # must not raise


@given(n=st.integers(min_value=1, max_value=12))
@settings(max_examples=12, deadline=None)
def test_cauchy_any_square_submatrix_invertible(n):
    field = GF256
    mat = cauchy_matrix(2 * n, n, field)
    rng = np.random.default_rng(100 + n)
    rows = rng.choice(2 * n, size=n, replace=False)
    gf_invert(mat[rows], field)  # must not raise


@given(field=st.sampled_from([GF256, GF65536]),
       k=st.integers(1, 128), ell=st.integers(1, 128),
       data=st.data())
@settings(max_examples=80, deadline=None)
def test_cauchy_inverse_closed_form_matches_elimination(field, k, ell, data):
    """The closed form is the unique inverse: bit-equal to Gauss-Jordan
    on any equal-size row / column subset of ``cauchy_matrix(ell, k)``,
    for every x from 1 to ``min(k, ell)``, whatever the order the
    subsets are listed in."""
    x = data.draw(st.integers(1, min(k, ell)))
    seed = data.draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    rows = rng.choice(ell, size=x, replace=False)
    cols = rng.choice(k, size=x, replace=False)
    sub = cauchy_matrix(ell, k, field)[np.ix_(rows, cols)]
    inverse = cauchy_inverse(rows, ell + cols, field)
    oracle = gf_invert(sub, field)
    assert inverse.dtype == oracle.dtype
    assert np.array_equal(inverse, oracle)
    assert is_identity(gf_matmul(sub, inverse, field))
    assert is_identity(gf_matmul(inverse, sub, field))


def test_cauchy_inverse_rejects_points_that_are_no_cauchy_matrix():
    with pytest.raises(ParameterError):
        cauchy_inverse(np.arange(3), np.arange(3, 5), GF256)
    with pytest.raises(SingularMatrixError):      # a repeated row point
        cauchy_inverse(np.array([0, 0]), np.array([2, 3]), GF256)
    with pytest.raises(SingularMatrixError):      # the sets overlap
        cauchy_inverse(np.array([0, 1]), np.array([1, 2]), GF256)


def test_cauchy_size_limit():
    with pytest.raises(ParameterError):
        cauchy_matrix(200, 100, GF256)


def test_vandermonde_size_limit():
    vandermonde_matrix(256, 10, GF256)  # full field is allowed
    with pytest.raises(ParameterError):
        vandermonde_matrix(257, 10, GF256)


def test_systematize_top_is_identity():
    field = GF256
    gen = vandermonde_matrix(12, 5, field)
    sys = systematize(gen, 5, field)
    assert is_identity(sys[:5])
    # MDS preserved: any 5 rows invertible
    rng = np.random.default_rng(9)
    rows = rng.choice(12, size=5, replace=False)
    gf_invert(sys[rows], field)


def test_gf_matmul_shape_mismatch():
    with pytest.raises(ParameterError):
        gf_matmul(np.zeros((2, 3), dtype=np.uint8),
                  np.zeros((2, 3), dtype=np.uint8), GF256)


def test_gf_matvec_identity_passthrough():
    field = GF256
    rng = np.random.default_rng(4)
    packets = rng.integers(0, 256, size=(5, 7)).astype(np.uint8)
    out = gf_matvec_packets(gf_eye(5, field), packets, field)
    assert np.array_equal(out, packets)


def test_gf2_gauss_jordan_roundtrip():
    """Random dense systems with a uint8 payload rhs round-trip."""
    rng = np.random.default_rng(5)
    n = 20
    solved_any = False
    for _ in range(20):
        mat = rng.random((n, n)) < 0.5
        x = rng.integers(0, 256, size=(n, 4)).astype(np.uint8)
        rhs = np.zeros_like(x)
        for i in range(n):
            for j in range(n):
                if mat[i, j]:
                    rhs[i] ^= x[j]
        solved = gf2_oracle_solve(mat, rhs)
        if solved is not None:
            assert np.array_equal(solved, x)
            solved_any = True
    assert solved_any


def test_gf2_gauss_jordan_underdetermined():
    """Fewer rows than columns can never reach full column rank."""
    assert gf2_oracle_solve(np.ones((2, 3), dtype=bool),
                            np.zeros((2, 1), dtype=np.uint8)) is None
