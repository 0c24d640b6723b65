"""TornadoCode end-to-end: encode/decode correctness and decoder behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes.tornado.code import TornadoCode
from repro.codes.tornado.degree import two_point_distribution
from repro.codes.tornado.presets import tornado_a, tornado_b
from repro.errors import DecodeFailure, ParameterError


def encode_random(code, payload=32, seed=0):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, 256, size=(code.k, payload), dtype=np.uint8)
    return src, code.encode(src)


class TestEncoding:
    def test_systematic_prefix(self):
        code = tornado_a(200, seed=1)
        src, enc = encode_random(code)
        assert np.array_equal(enc[:200], src)

    def test_encoding_consistency_with_structure(self):
        """Every graph equation holds on the encoder's output."""
        code = tornado_a(300, seed=2)
        src, enc = encode_random(code, seed=3)
        st_ = code.structure
        for gi, graph in enumerate(st_.graphs):
            left = enc[st_.layer_offsets[gi]:
                       st_.layer_offsets[gi] + st_.layer_sizes[gi]]
            right = enc[st_.layer_offsets[gi + 1]:
                        st_.layer_offsets[gi + 1] + graph.right_size]
            for r in range(graph.right_size):
                lo, hi = graph.right_indptr[r], graph.right_indptr[r + 1]
                expect = np.bitwise_xor.reduce(
                    left[graph.edge_left[lo:hi]], axis=0)
                assert np.array_equal(right[r], expect), f"graph {gi} node {r}"

    def test_cap_is_rs_encoding_of_last_layer(self):
        code = tornado_a(300, seed=2)
        src, enc = encode_random(code, seed=4)
        st_ = code.structure
        last = enc[st_.last_layer_offset:
                   st_.last_layer_offset + st_.last_layer_size]
        full = st_.cap_code.encode(last.view(st_.cap_code.field.dtype))
        cap = full[st_.last_layer_size:].view(np.uint8)
        assert np.array_equal(enc[st_.cap_offset:], cap)

    def test_sender_receiver_same_seed_same_code(self):
        a = tornado_a(250, seed=42)
        b = tornado_a(250, seed=42)
        src, enc = encode_random(a, seed=5)
        assert np.array_equal(b.encode(src), enc)


class TestDecoding:
    @pytest.mark.parametrize("k", [256, 400, 1024, 4096])
    @pytest.mark.parametrize("preset", [tornado_a, tornado_b],
                             ids=["A", "B"])
    def test_roundtrip_at_threshold(self, preset, k):
        code = preset(k, seed=6)
        src, enc = encode_random(code, payload=512, seed=7)
        rng = np.random.default_rng(8)
        order = rng.permutation(code.n)
        needed = code.packets_to_decode(order)
        rec = code.decode({int(i): enc[i] for i in order[:needed]})
        assert np.array_equal(rec, src)

    @pytest.mark.parametrize("cap_threshold", [64, 128, 256])
    def test_roundtrip_at_any_cascade_depth(self, cap_threshold):
        """A larger cap threshold stops the cascade earlier: fewer graph
        layers over a bigger Reed-Solomon cap, decoded all the same."""
        code = TornadoCode(600, degree_dist=two_point_distribution(3, 20, 0.30),
                           cap_threshold=cap_threshold, seed=0)
        src, enc = encode_random(code, payload=256, seed=2)
        order = np.random.default_rng(2).permutation(code.n)
        needed = code.packets_to_decode(order)
        rec = code.decode({int(i): enc[i] for i in order[:needed]})
        assert np.array_equal(rec, src)

    def test_decode_below_threshold_fails(self):
        code = tornado_a(400, seed=6)
        src, enc = encode_random(code, seed=9)
        rng = np.random.default_rng(10)
        order = rng.permutation(code.n)
        needed = code.packets_to_decode(order)
        with pytest.raises(DecodeFailure):
            code.decode({int(i): enc[i] for i in order[:needed - 1]})

    def test_decode_everything(self):
        code = tornado_a(300, seed=11)
        src, enc = encode_random(code, seed=12)
        rec = code.decode({i: enc[i] for i in range(code.n)})
        assert np.array_equal(rec, src)

    def test_decode_source_only(self):
        code = tornado_a(300, seed=11)
        src, enc = encode_random(code, seed=13)
        rec = code.decode({i: enc[i] for i in range(code.k)})
        assert np.array_equal(rec, src)

    def test_structural_matches_payload_decodability(self):
        code = tornado_a(200, seed=14)
        src, enc = encode_random(code, seed=15)
        rng = np.random.default_rng(16)
        for trial in range(5):
            count = rng.integers(code.k, code.n)
            keep = rng.permutation(code.n)[:count]
            structural = code.is_decodable(keep)
            try:
                rec = code.decode({int(i): enc[i] for i in keep})
                payload_ok = np.array_equal(rec, src)
            except DecodeFailure:
                payload_ok = False
            assert structural == payload_ok

    def test_monotone_decodability(self):
        """Adding packets never breaks decodability."""
        code = tornado_a(150, seed=17)
        rng = np.random.default_rng(18)
        order = rng.permutation(code.n)
        needed = code.packets_to_decode(order)
        assert code.is_decodable(order[:needed])
        assert code.is_decodable(order[:needed + 10])
        assert not code.is_decodable(order[:code.k - 1])

    def test_incremental_matches_batch(self):
        code = tornado_a(150, seed=19)
        rng = np.random.default_rng(20)
        order = rng.permutation(code.n)
        needed = code.packets_to_decode(order)
        dec = code.new_decoder()
        for pos, idx in enumerate(order):
            dec.add_packet(int(idx))
            if dec.is_complete:
                assert pos + 1 == needed
                break
        assert dec.is_complete

    def test_duplicates_counted_not_harmful(self):
        code = tornado_a(150, seed=21)
        dec = code.new_decoder()
        dec.add_packet(0)
        assert not dec.add_packet(0)
        assert dec.duplicates_seen == 1
        assert dec.packets_added == 1


class TestInactivation:
    def test_b_needs_fewer_packets_than_a(self):
        rng = np.random.default_rng(22)
        a = tornado_a(600, seed=23)
        b = tornado_b(600, seed=23)
        orders = [rng.permutation(a.n) for _ in range(5)]
        a_needs = np.mean([a.packets_to_decode(o) for o in orders])
        b_needs = np.mean([b.packets_to_decode(o) for o in orders])
        assert b_needs < a_needs

    def test_b_payload_roundtrip(self):
        code = tornado_b(300, seed=24)
        src, enc = encode_random(code, seed=25)
        rng = np.random.default_rng(26)
        order = rng.permutation(code.n)
        needed = code.packets_to_decode(order)
        rec = code.decode({int(i): enc[i] for i in order[:needed]})
        assert np.array_equal(rec, src)
        # B's threshold should be near k (low overhead).
        assert needed < 1.15 * code.k

    def test_inactivation_runs_counted(self):
        code = tornado_b(300, seed=27)
        rng = np.random.default_rng(28)
        dec = code.new_decoder()
        # Feed gradually: completion then lands at B's (inactivation)
        # threshold, which lies below where pure peeling would finish.
        for index in rng.permutation(code.n):
            dec.add_packet(int(index))
            if dec.is_complete:
                break
        assert dec.is_complete
        assert dec.inactivation_runs >= 1


class TestSmallAndDegenerate:
    def test_tiny_k_is_mds(self):
        """k below the cap threshold degenerates to a pure RS code."""
        code = tornado_a(32, seed=29)
        assert not code.structure.graphs
        rng = np.random.default_rng(30)
        src, enc = encode_random(code, seed=31)
        keep = rng.permutation(code.n)[:32]
        rec = code.decode({int(i): enc[i] for i in keep})
        assert np.array_equal(rec, src)

    def test_k_one(self):
        code = TornadoCode(1, seed=0)
        src = np.array([[1, 2, 3]], dtype=np.uint8)
        enc = code.encode(src)
        assert np.array_equal(code.decode({1: enc[1]}), src)

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            TornadoCode(0)
        code = tornado_a(100, seed=1)
        with pytest.raises(ParameterError):
            code.new_decoder().add_packet(code.n)


@given(k=st.integers(min_value=140, max_value=400),
       seed=st.integers(min_value=0, max_value=10))
@settings(max_examples=8, deadline=None)
def test_decode_correctness_property(k, seed):
    """Whenever decode succeeds, the output equals the source block."""
    code = TornadoCode(k, degree_dist=two_point_distribution(3, 20, 0.3),
                       seed=seed)
    rng = np.random.default_rng(seed + 1000)
    src = rng.integers(0, 256, size=(k, 8), dtype=np.uint8)
    enc = code.encode(src)
    order = rng.permutation(code.n)
    needed = code.packets_to_decode(order)
    rec = code.decode({int(i): enc[i] for i in order[:needed]})
    assert np.array_equal(rec, src)
