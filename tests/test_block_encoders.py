"""Lazy fixed-rate encoders: ``enc[i]`` is ``code.encode(src)[i]``, and
nothing is held past what the rows need.

* The index contract, for any sequence of requests on one encoder:
  scalar, numpy-scalar, negative, array, empty and slice indices give
  exactly numpy's answer on the full encoding, and an index outside
  ``[-n, n)`` raises ``IndexError`` — on ``tornado-a``, ``tornado-b``,
  ``rs`` over GF(2^8) and the base :class:`BlockEncoder`, at payload
  widths of whole uint64 lanes and at ragged ones (the XOR kernels'
  lane view and their byte route).
* Tornado's cap, unhinted, is all-or-nothing per block: one cap row
  fills every cap row, and a block encoder keeps only its ``(n, P)``
  values (the cap product's tables live in the kernel's per-thread
  scratch).
* The ``rs`` encoder drops its nibble tables once every redundancy row
  is cached.
* The ``expect_rows`` hint: after any hints, every request still gives
  the encoding's bytes, rows outside the hint included; a hinted
  Tornado block computes its cap in one product over exactly the
  expected cap rows, and neither a hinted Tornado nor a hinted ``rs``
  encoder keeps nibble tables past that product.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes.base import BlockEncoder
from repro.codes.registry import build_code
from repro.codes.tornado import code as tornado_code

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


@pytest.mark.parametrize("width", sorted(WIDTHS))
@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=25)
@given(data=st.data())
def test_hinted_requests_return_the_encodings_rows(family, width, data):
    """Hints of random row sets (repeats allowed), given before and
    between requests: every request, inside a hint or not, is the
    encoding's rows."""
    k = data.draw(st.integers(8, 128), label="k")
    payload = data.draw(st.sampled_from(WIDTHS[width]), label="payload")
    source = _source(k, payload, k)
    code, enc = _encoder(family, k, source)
    full = code.encode(source)
    n = code.n
    rows = st.lists(st.integers(0, n - 1), max_size=2 * n)
    expected = np.array(data.draw(rows, label="hint"), dtype=np.int64)
    enc.expect_rows(expected)
    for _ in range(data.draw(st.integers(1, 8), label="requests")):
        kind = data.draw(st.sampled_from(["hinted", "any", "hint"]))
        if kind == "hint":
            expected = np.array(data.draw(rows, label="hint"),
                                dtype=np.int64)
            enc.expect_rows(expected)
            continue
        if kind == "hinted" and expected.size:
            lo = data.draw(st.integers(0, expected.size - 1))
            index = expected[lo:lo + data.draw(st.integers(1, 64))]
        else:
            index = _index(data.draw, n)
            if isinstance(index, (int, np.integer)) and not -n <= index < n:
                continue
        assert enc[index].tobytes() == full[index].tobytes()


def _counting_products(monkeypatch):
    """The matrices every Tornado cap product is handed, in call order."""
    products = []
    real = tornado_code.gf_matvec_packets

    def counted(matrix, *args):
        products.append(np.array(matrix))
        return real(matrix, *args)

    monkeypatch.setattr(tornado_code, "gf_matvec_packets", counted)
    return products


@pytest.mark.parametrize("payload", [64, 61])
def test_a_hinted_cap_is_one_product_over_the_expected_rows(monkeypatch,
                                                            payload):
    source = _source(256, payload, 6)
    code, enc = _encoder("tornado-b", 256, source)
    full = code.encode(source)
    cap = code.structure.cap_offset
    matrix = code.structure.cap_code._redundancy_matrix
    rng = np.random.default_rng(7)
    expected = rng.integers(0, code.n, size=300)
    want = np.unique(expected[expected >= cap]) - cap
    assert 0 < want.size < code.n - cap
    products = _counting_products(monkeypatch)
    enc.expect_rows(expected)
    for chunk in np.array_split(rng.permutation(expected), 7):
        assert enc[chunk].tobytes() == full[chunk].tobytes()
    assert len(products) == 1
    assert products[0].tobytes() == matrix[want].tobytes()
    # a cap row outside the hint, with no hint pending: every cap row
    # still missing, in one more product
    outside = cap + int(np.setdiff1d(np.arange(code.n - cap), want)[0])
    assert enc[outside].tobytes() == full[outside].tobytes()
    assert len(products) == 2
    rest = np.setdiff1d(np.arange(code.n - cap), want)
    assert products[1].tobytes() == matrix[rest].tobytes()
    assert enc._values.tobytes() == full.tobytes()


def test_a_hint_without_cap_rows_computes_no_cap(monkeypatch):
    source = _source(256, 32, 8)
    code, enc = _encoder("tornado-b", 256, source)
    products = _counting_products(monkeypatch)
    enc.expect_rows(np.arange(code.structure.cap_offset))
    enc[np.arange(code.structure.cap_offset)]
    assert products == []


def test_hinted_encoders_hold_no_tables():
    """A hinted Tornado block keeps only its values, and a hinted ``rs``
    block computes its rows with the kernel's scratch tables, never its
    own."""
    payload = 1024
    code = build_code("tornado-b", 256, seed=1)
    code.block_encoder(_source(256, payload, 4))[code.n - 1]  # scratch
    source = _source(256, payload, 5)
    full = code.encode(source)
    expected = np.random.default_rng(9).integers(0, code.n, size=300)
    tracemalloc.start()
    try:
        enc = code.block_encoder(source)
        enc.expect_rows(expected)
        for chunk in np.array_split(expected, 5):
            assert enc[chunk].tobytes() == full[chunk].tobytes()
        del chunk
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 1.1 * code.n * payload

    source = _source(128, 64, 10)
    code, enc = _encoder("rs", 128, source)
    full = code.encode(source)
    expected = np.random.default_rng(11).integers(0, code.n, size=100)
    enc.expect_rows(expected)
    for chunk in np.array_split(expected, 5):
        assert enc[chunk].tobytes() == full[chunk].tobytes()
        assert enc._tables is None
    want = np.unique(expected[expected >= code.k]) - code.k
    assert np.flatnonzero(enc._have).tolist() == want.tolist()
