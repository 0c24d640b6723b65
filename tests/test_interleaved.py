"""Interleaved block codes: indexing, carousel order, quorum decoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes.interleaved import InterleavedCode
from repro.errors import DecodeFailure, ParameterError
from repro.transfer.schedule import carousel_order


def make_source(code, payload=8, seed=0):
    rng = np.random.default_rng(seed)
    dtype = code.block_codes[0].field.dtype
    hi = int(np.iinfo(dtype).max) + 1
    return rng.integers(0, hi, size=(code.total_k, payload)).astype(dtype)


def test_block_partition_even():
    code = InterleavedCode(100, 20)
    assert code.num_blocks == 5
    assert code.block_sizes == [20] * 5
    assert code.n == 200


def test_block_partition_uneven():
    code = InterleavedCode(103, 20)
    assert code.num_blocks == 6
    assert sum(code.block_sizes) == 103
    assert max(code.block_sizes) - min(code.block_sizes) <= 1


def test_block_of_roundtrips_global_index():
    code = InterleavedCode(53, 10)
    for idx in range(code.n):
        b, within = code.block_of(idx)
        assert code.global_index(b, within) == idx


def test_encode_decode_roundtrip():
    code = InterleavedCode(60, 20)
    src = make_source(code, seed=1)
    enc = code.encode(src)
    rng = np.random.default_rng(2)
    received = {}
    for b in range(code.num_blocks):
        n_b = code.block_ns[b]
        pick = rng.choice(n_b, size=code.block_sizes[b], replace=False)
        for within in pick:
            gi = code.global_index(b, int(within))
            received[gi] = enc[gi]
    assert np.array_equal(code.decode(received), src)


def test_decode_fails_when_one_block_short():
    code = InterleavedCode(40, 20)
    src = make_source(code, seed=3)
    enc = code.encode(src)
    received = {i: enc[i] for i in range(code.block_ns[0])}  # block 0 only
    with pytest.raises(DecodeFailure):
        code.decode(received)


def test_is_decodable_needs_every_block():
    code = InterleavedCode(40, 20)
    block0 = [code.global_index(0, j) for j in range(20)]
    block1 = [code.global_index(1, j) for j in range(20)]
    assert not code.is_decodable(block0)
    assert code.is_decodable(block0 + block1)
    # duplicates don't help
    assert not code.is_decodable(block0 + block0)


def test_packets_to_decode_counts_duplicates():
    code = InterleavedCode(4, 2)
    b0 = [code.global_index(0, j) for j in range(2)]
    b1 = [code.global_index(1, j) for j in range(2)]
    order = [b0[0], b0[0], b0[1], b1[0], b1[1]]
    assert code.packets_to_decode(order) == 5


@given(total=st.integers(min_value=4, max_value=80),
       block=st.integers(min_value=2, max_value=30))
@settings(max_examples=25, deadline=None)
def test_structural_invariants(total, block):
    code = InterleavedCode(total, block)
    assert sum(code.block_sizes) == total
    assert code.n == sum(code.block_ns)
    order = carousel_order(code.n, 0)
    assert sorted(order.tolist()) == list(range(code.n))


def test_block_k_larger_than_total_is_clamped():
    code = InterleavedCode(10, 100)
    assert code.num_blocks == 1
    assert code.block_sizes == [10]


def test_bad_parameters():
    with pytest.raises(ParameterError):
        InterleavedCode(0, 5)
    with pytest.raises(ParameterError):
        InterleavedCode(10, 0)
    code = InterleavedCode(10, 5)
    with pytest.raises(ParameterError):
        code.block_of(code.n)
    with pytest.raises(ParameterError):
        code.global_index(5, 0)
