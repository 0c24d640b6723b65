"""Reed-Solomon erasure codes: MDS property, decode paths, field choice."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes.reed_solomon import (
    ReedSolomonCode,
    cauchy_code,
    default_field_for,
    vandermonde_code,
)
from repro.errors import DecodeFailure, ParameterError
from repro.gf import GF256, GF65536

CONSTRUCTIONS = ["cauchy", "vandermonde"]


def make_source(k, payload, dtype, seed=0):
    rng = np.random.default_rng(seed)
    info = np.iinfo(dtype)
    return rng.integers(0, int(info.max) + 1, size=(k, payload)).astype(dtype)


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
class TestRoundtrip:
    def test_systematic_prefix(self, construction):
        code = ReedSolomonCode(6, 12, construction)
        src = make_source(6, 16, code.field.dtype)
        enc = code.encode(src)
        assert np.array_equal(enc[:6], src)

    def test_decode_from_any_k(self, construction):
        code = ReedSolomonCode(8, 16, construction)
        src = make_source(8, 24, code.field.dtype, seed=1)
        enc = code.encode(src)
        rng = np.random.default_rng(2)
        for _ in range(10):
            keep = rng.choice(code.n, size=8, replace=False)
            rec = code.decode({int(i): enc[i] for i in keep})
            assert np.array_equal(rec, src)

    def test_decode_all_source_is_copy(self, construction):
        code = ReedSolomonCode(5, 10, construction)
        src = make_source(5, 8, code.field.dtype, seed=3)
        enc = code.encode(src)
        rec = code.decode({i: enc[i] for i in range(5)})
        assert np.array_equal(rec, src)

    def test_decode_all_redundant(self, construction):
        code = ReedSolomonCode(5, 10, construction)
        src = make_source(5, 8, code.field.dtype, seed=4)
        enc = code.encode(src)
        rec = code.decode({i + 5: enc[i + 5] for i in range(5)})
        assert np.array_equal(rec, src)

    def test_insufficient_packets_fail(self, construction):
        code = ReedSolomonCode(5, 10, construction)
        src = make_source(5, 8, code.field.dtype, seed=5)
        enc = code.encode(src)
        with pytest.raises(DecodeFailure):
            code.decode({i: enc[i] for i in range(4)})


@given(k=st.integers(min_value=1, max_value=20),
       extra=st.integers(min_value=1, max_value=10))
@settings(max_examples=20, deadline=None)
def test_cauchy_roundtrip_property(k, extra):
    code = cauchy_code(k, k + extra)
    src = make_source(k, 4, code.field.dtype, seed=k)
    enc = code.encode(src)
    rng = np.random.default_rng(k * 31 + extra)
    keep = rng.choice(code.n, size=k, replace=False)
    assert np.array_equal(code.decode({int(i): enc[i] for i in keep}), src)


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
@pytest.mark.parametrize("k,n", [(12, 30), (40, 80), (140, 300)])
def test_array_decode_is_the_mapping_decode(construction, k, n):
    """One decode body: rows in, block out — equal to the mapping form
    and to the source at every x from 0 (a pure copy) to k (nothing
    but redundancy), in any row order, over both fields."""
    code = ReedSolomonCode(k, n, construction)
    src = make_source(k, 10, code.field.dtype, seed=k)
    enc = code.encode(src)
    rng = np.random.default_rng(n)
    for x in sorted({0, 1, k // 2, k - 1, k}):
        lost = rng.choice(k, size=x, replace=False)
        kept = np.setdiff1d(np.arange(k), lost)
        spare = k + rng.choice(n - k, size=min(n - k, x + 2),
                               replace=False)
        indices = rng.permutation(np.concatenate([kept, spare]))
        by_rows = code.decode_rows(indices, enc[indices])
        by_map = code.decode({int(i): enc[i] for i in indices})
        assert by_rows.dtype == code.field.dtype
        assert np.array_equal(by_rows, src), x
        assert np.array_equal(by_map, src), x
        ordered = np.sort(indices)
        assert np.array_equal(code.decode_rows(ordered, enc[ordered]),
                              src), x


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_array_decode_fails_like_the_mapping_decode(construction):
    code = ReedSolomonCode(6, 14, construction)
    enc = code.encode(make_source(6, 8, code.field.dtype, seed=9))
    few = np.array([0, 2, 9, 13])
    with pytest.raises(DecodeFailure) as by_rows:
        code.decode_rows(few, enc[few])
    with pytest.raises(DecodeFailure) as by_map:
        code.decode({int(i): enc[i] for i in few})
    assert by_rows.value.missing == by_map.value.missing == 2
    with pytest.raises(DecodeFailure) as empty:
        code.decode({})
    assert empty.value.missing == 6
    # keys outside the codeword do not count, as before
    with pytest.raises(DecodeFailure) as stray:
        code.decode({**{int(i): enc[i] for i in few}, 99: enc[0], -1: enc[0]})
    assert stray.value.missing == 2
    six = np.array([0, 1, 2, 3, 4, 9])
    for bad in (np.array([0, 1, 2, 3, 4, 4]), np.array([0, 1, 2, 3, 4, 14]),
                np.array([-1, 1, 2, 3, 4, 9])):
        with pytest.raises(ParameterError):
            code.decode_rows(bad, enc[six])
    with pytest.raises(ParameterError):
        code.decode_rows(six, enc[six][:5])


def test_is_decodable_counts_distinct():
    code = cauchy_code(4)
    assert not code.is_decodable([0, 0, 0, 0, 1])
    assert not code.is_decodable([0, 1, 2])
    assert code.is_decodable([0, 1, 2, 7])
    # out-of-range indices do not count
    assert not code.is_decodable([0, 1, 2, 99])


def test_packets_to_decode_is_kth_distinct():
    code = cauchy_code(4)
    order = [5, 5, 1, 1, 2, 7, 0]
    # distinct arrivals: 5,1,2,7 -> decodable after position 6 (1-based)
    assert code.packets_to_decode(order) == 6


def test_gf65536_large_code_roundtrip():
    code = cauchy_code(300)  # n = 600 > 256 forces GF(2^16)
    assert code.field is GF65536
    src = make_source(300, 8, np.uint16, seed=6)
    enc = code.encode(src)
    rng = np.random.default_rng(7)
    keep = rng.choice(code.n, size=300, replace=False)
    assert np.array_equal(code.decode({int(i): enc[i] for i in keep}), src)


def test_default_field_selection():
    assert default_field_for(256) is GF256
    assert default_field_for(257) is GF65536
    with pytest.raises(ParameterError):
        default_field_for(70000)


def test_bad_parameters():
    with pytest.raises(ParameterError):
        ReedSolomonCode(0, 4)
    with pytest.raises(ParameterError):
        ReedSolomonCode(4, 4)
    with pytest.raises(ParameterError):
        ReedSolomonCode(4, 8, construction="fountain")
    with pytest.raises(ParameterError):
        ReedSolomonCode(200, 400, field=GF256)


def test_stretch_and_redundancy():
    code = vandermonde_code(10)
    assert code.n == 20
    assert code.redundancy == 10
    assert code.stretch_factor == pytest.approx(2.0)
