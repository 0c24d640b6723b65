"""Lazy fixed-rate encoders: ``enc[i]`` is ``code.encode(src)[i]``, and
nothing is held past what the rows need.

* The index contract, for any sequence of requests on one encoder:
  scalar, numpy-scalar, negative, array, empty and slice indices give
  exactly numpy's answer on the full encoding, and an index outside
  ``[-n, n)`` raises ``IndexError`` — on ``tornado-a``, ``tornado-b``,
  ``rs`` over GF(2^8) and the base :class:`BlockEncoder`, at payload
  widths of whole uint64 lanes and at ragged ones (the XOR kernels'
  lane view and their byte route).
* Tornado's cap is all-or-nothing per block: one cap row fills every
  cap row, and a block encoder keeps only its ``(n, P)`` values (the cap
  product's tables live in the kernel's per-thread scratch).
* The ``rs`` encoder drops its nibble tables once every redundancy row
  is cached.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes.base import BlockEncoder
from repro.codes.registry import build_code

FAMILIES = ["tornado-a", "tornado-b", "rs", "base"]
#: payload widths: whole uint64 lanes, and widths that are not.
WIDTHS = {"lanes": [8, 24, 64], "ragged": [5, 21, 61]}


def _source(k: int, payload: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(
        0, 256, size=(k, payload), dtype=np.uint8)


def _encoder(family: str, k: int, source: np.ndarray):
    code = build_code("rs" if family == "base" else family, k, seed=k)
    if family == "base":
        return code, BlockEncoder(code, source)
    return code, code.block_encoder(source)


def _index(draw, n: int):
    """One request: in-range and out-of-range scalars (int and numpy),
    arrays (empty included) and slices."""
    kind = draw(st.sampled_from(["int", "numpy", "array", "slice"]))
    if kind == "slice":
        return draw(st.slices(n))
    if kind == "array":
        return np.array(draw(st.lists(st.integers(-n, n - 1), max_size=6)),
                        dtype=np.int64)
    i = draw(st.integers(-n - 2, n + 1))
    return np.int64(i) if kind == "numpy" else i


@pytest.mark.parametrize("width", sorted(WIDTHS))
@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=25)
@given(data=st.data())
def test_requests_return_the_encodings_rows(family, width, data):
    k = data.draw(st.integers(8, 128), label="k")
    payload = data.draw(st.sampled_from(WIDTHS[width]), label="payload")
    source = _source(k, payload, k)
    code, enc = _encoder(family, k, source)
    full = code.encode(source)
    n = code.n
    assert len(enc) == n and enc.shape == full.shape
    for _ in range(data.draw(st.integers(1, 8), label="requests")):
        index = _index(data.draw, n)
        if isinstance(index, (int, np.integer)) and not -n <= index < n:
            with pytest.raises(IndexError):
                enc[index]
            continue
        got, want = enc[index], full[index]
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("family", FAMILIES)
def test_an_array_reaching_past_n_raises(family):
    code, enc = _encoder(family, 16, _source(16, 8, 1))
    for bad in ([0, code.n], [-code.n - 1]):
        with pytest.raises(IndexError):
            enc[np.array(bad)]


def test_rs_encoder_drops_its_tables_once_every_row_is_cached():
    source = _source(64, 64, 2)
    code, enc = _encoder("rs", 64, source)
    enc[code.k]
    assert enc._tables is not None
    rows = enc[np.arange(code.n)]
    assert enc._tables is None
    assert rows.tobytes() == code.encode(source).tobytes()


@pytest.mark.parametrize("payload", [64, 61])
def test_one_cap_row_fills_the_whole_cap(payload):
    source = _source(256, payload, 3)
    code, enc = _encoder("tornado-b", 256, source)
    cap = code.structure.cap_offset
    enc[np.arange(cap)]
    assert not enc._values[cap:].any()
    enc[cap + 3]
    assert enc._values.tobytes() == code.encode(source).tobytes()


def test_tornado_block_encoder_keeps_only_its_values():
    payload = 1024
    code = build_code("tornado-b", 256, seed=1)
    code.block_encoder(_source(256, payload, 4))[code.n - 1]  # scratch
    source = _source(256, payload, 5)
    full = code.encode(source)
    tracemalloc.start()
    try:
        enc = code.block_encoder(source)
        for lo in range(0, code.n, 64):
            rows = enc[np.arange(lo, min(lo + 64, code.n))]
            assert rows.tobytes() == full[lo:lo + 64].tobytes()
        del rows
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 1.1 * code.n * payload
