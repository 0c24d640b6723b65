"""The central code registry: spec parsing, building, adaptation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.codes.lt.code import LTCode
from repro.codes.registry import (
    REGISTRY,
    CodeRegistry,
    CodeSpec,
    ErasureEncoder,
    IncrementalDecoder,
    RatelessEncoder,
    SetDecoder,
    available_codes,
    block_seed,
    build_code,
    incremental_decoder,
    parse_spec,
)
from repro.codes.reed_solomon import ReedSolomonCode
from repro.codes.tornado.code import TornadoCode
from repro.errors import DecodeFailure, ParameterError

from _oracles import shortest_decodable_prefix


class TestSpecParsing:
    def test_bare_family(self):
        spec = parse_spec("tornado-a")
        assert spec.family == "tornado-a"
        assert spec.params == ()
        assert spec.to_string() == "tornado-a"

    def test_parameters(self):
        spec = parse_spec("lt:c=0.03,delta=0.1")
        assert spec.family == "lt"
        assert spec.param_dict == {"c": 0.03, "delta": 0.1}

    def test_value_types(self):
        spec = parse_spec("rs:construction=vandermonde,stretch=1.5")
        assert spec.param_dict == {"construction": "vandermonde",
                                   "stretch": 1.5}
        assert parse_spec("x:n=3").param_dict == {"n": 3}
        assert parse_spec("x:flag=true").param_dict == {"flag": True}

    @pytest.mark.parametrize("text", [
        "tornado-a",
        "lt:c=0.03,delta=0.1",
        "rs:construction=vandermonde,stretch=1.5",
        "lt:delta=0.5,c=0.05",
    ])
    def test_round_trip(self, text):
        spec = parse_spec(text)
        assert parse_spec(spec.to_string()) == spec

    def test_canonical_form_sorts_parameters(self):
        assert (parse_spec("lt:delta=0.1,c=0.03")
                == parse_spec("lt:c=0.03,delta=0.1"))
        assert parse_spec("lt:delta=0.1,c=0.03").to_string() == \
            "lt:c=0.03,delta=0.1"

    def test_parse_accepts_spec_objects(self):
        spec = CodeSpec.make("lt", c=0.05)
        assert parse_spec(spec) is spec

    def test_empty_family_rejected(self):
        with pytest.raises(ParameterError, match="empty code family"):
            parse_spec(":c=1")
        with pytest.raises(ParameterError):
            parse_spec("")

    def test_malformed_parameter_named_in_error(self):
        with pytest.raises(ParameterError, match="c0.03"):
            parse_spec("lt:c0.03")
        with pytest.raises(ParameterError, match="name=value"):
            parse_spec("lt:=3")

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(ParameterError, match="duplicate"):
            parse_spec("lt:c=1,c=2")

    def test_non_string_rejected(self):
        with pytest.raises(ParameterError, match="must be a string"):
            parse_spec(42)


class TestRegistryBuild:
    def test_default_families_present(self):
        names = [family.name for family in available_codes()]
        for expected in ("tornado-a", "tornado-b", "lt", "rs"):
            assert expected in names

    def test_build_tornado(self):
        code = build_code("tornado-a", 200, seed=3)
        assert isinstance(code, TornadoCode)
        assert code.k == 200 and code.n == 400

    def test_build_lt_with_parameters(self):
        code = build_code("lt:c=0.05,delta=0.5", 100, seed=3)
        assert isinstance(code, LTCode)
        assert code.n is None

    def test_lt_parameters_change_the_distribution(self):
        a = build_code("lt", 200, seed=1)
        b = build_code("lt:c=0.1,delta=0.5", 200, seed=1)
        assert a.degree_dist.probabilities != b.degree_dist.probabilities

    def test_build_rs_constructions(self):
        cauchy = build_code("rs", 50)
        vander = build_code("rs:construction=vandermonde,stretch=1.5", 50)
        assert isinstance(cauchy, ReedSolomonCode)
        assert cauchy.n == 100
        assert vander.construction == "vandermonde"
        assert vander.n == 75

    def test_unknown_family_lists_registered(self):
        with pytest.raises(ParameterError, match="tornado-a"):
            build_code("raptorq", 100)

    def test_unknown_parameter_lists_valid(self):
        with pytest.raises(ParameterError, match="c, delta"):
            build_code("lt:sigma=1", 100)

    def test_unusable_parameter_value_is_a_clean_error(self):
        """A structurally valid spec with a bad value must raise
        ParameterError (CLI exit 2), not a factory TypeError."""
        with pytest.raises(ParameterError, match="lt:c=oops"):
            build_code("lt:c=oops", 100)
        with pytest.raises(ParameterError, match="construction"):
            build_code("rs:construction=weird", 50)

    def test_rateless_flag(self):
        assert REGISTRY.is_rateless("lt")
        assert REGISTRY.is_rateless("lt:c=0.05")
        assert not REGISTRY.is_rateless("tornado-b")
        assert not REGISTRY.is_rateless("rs")

    def test_modes_metadata(self):
        lt = REGISTRY.family("lt")
        assert "rateless" in lt.modes and "layered" in lt.modes
        rs = REGISTRY.family("rs")
        assert "carousel" in rs.modes and "layered" in rs.modes

    def test_parameters_discovered_from_factory(self):
        assert set(REGISTRY.family("lt").parameters()) == {"c", "delta"}
        assert "stretch" in REGISTRY.family("tornado-a").parameters()

    def test_duplicate_registration_rejected(self):
        registry = CodeRegistry()
        registry.register("x", lambda k, seed=0: None)
        with pytest.raises(ParameterError, match="already registered"):
            registry.register("x", lambda k, seed=0: None)

    def test_same_spec_same_seed_reproducible(self):
        a = build_code("lt", 64, seed=9)
        b = build_code("lt", 64, seed=9)
        ids = list(range(80))
        assert a.packets_to_decode(ids) == b.packets_to_decode(ids)

    def test_block_seed_distinct_and_stable(self):
        seeds = {block_seed(7, b) for b in range(1000)}
        assert len(seeds) == 1000
        assert block_seed(7, 0) == block_seed(7, 0)
        assert 0 <= block_seed(2 ** 40, 5) < 2 ** 32


class TestProtocols:
    def test_native_codes_satisfy_protocols(self):
        tornado = build_code("tornado-a", 64, seed=0)
        lt = build_code("lt", 64, seed=0)
        assert isinstance(tornado, ErasureEncoder)
        assert isinstance(tornado.new_decoder(), IncrementalDecoder)
        assert isinstance(lt.new_decoder(), IncrementalDecoder)
        source = np.zeros((64, 8), dtype=np.uint8)
        assert isinstance(lt.encoder(source), RatelessEncoder)

    def test_set_decoder_satisfies_protocol(self):
        code = build_code("rs", 32)
        assert isinstance(incremental_decoder(code), IncrementalDecoder)


class TestIncrementalDecoderDispatch:
    def test_native_decoder_preferred(self):
        code = build_code("tornado-b", 64, seed=1)
        decoder = incremental_decoder(code)
        assert type(decoder).__name__ == "PeelingDecoder"

    def test_rs_gets_set_decoder(self):
        code = build_code("rs", 32)
        decoder = incremental_decoder(code)
        assert isinstance(decoder, SetDecoder)


class TestSetDecoder:
    def test_structural_completion_at_k_distinct(self):
        code = build_code("rs", 32)
        decoder = SetDecoder(code)
        added = decoder.add_packets(range(31))
        assert added == 31 and not decoder.is_complete
        assert decoder.add_packet(40)  # 32nd distinct index: MDS complete
        assert decoder.is_complete
        assert decoder.source_known_count == 32

    def test_duplicates_ignored(self):
        code = build_code("rs", 8)
        decoder = SetDecoder(code)
        assert decoder.add_packets([0, 0, 1, 1]) == 2
        assert decoder.packets_added == 2

    def test_structural_mode_refuses_source_data(self):
        code = build_code("rs", 8)
        decoder = SetDecoder(code)
        decoder.add_packets(range(8))
        assert decoder.is_complete
        with pytest.raises(DecodeFailure, match="structural"):
            decoder.source_data()

    def test_payload_decode_round_trips(self):
        code = build_code("rs", 16)
        rng = np.random.default_rng(0)
        source = rng.integers(0, 256, size=(16, 32), dtype=np.uint8)
        encoding = code.encode(source)
        decoder = SetDecoder(code, payload_size=32)
        # Feed redundancy-heavy subset: half the source packets missing.
        for index in list(range(8)) + list(range(16, 24)):
            decoder.add_packet(index, encoding[index])
        assert decoder.is_complete
        assert np.array_equal(decoder.source_data(), source)

    def test_incomplete_source_data_raises(self):
        code = build_code("rs", 8)
        decoder = SetDecoder(code)
        decoder.add_packets(range(4))
        with pytest.raises(DecodeFailure):
            decoder.source_data()

    def test_wrong_payload_width_rejected(self):
        code = build_code("rs", 8)
        decoder = SetDecoder(code, payload_size=32)
        with pytest.raises(ParameterError, match="32"):
            decoder.add_packet(0, np.zeros(16, dtype=np.uint8))
        with pytest.raises(ParameterError, match="32"):
            decoder.add_packets([1], np.zeros((1, 16), dtype=np.uint8))


FAMILIES = [family.name for family in available_codes()]


class TestDecodeThreshold:
    """``packets_to_decode`` is one scan for every code: the shortest
    arrival prefix the code's decoder completes on."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_an_order_that_never_decodes_raises_decode_failure(self,
                                                               family):
        code = build_code(family, 64, seed=0)
        with pytest.raises(DecodeFailure):
            code.packets_to_decode(list(range(10)))

    @given(family=st.sampled_from(FAMILIES),
           k=st.sampled_from([12, 40, 160]),
           seed=st.integers(0, 2 ** 16),
           kind=st.sampled_from(["permutation", "repeats", "short"]))
    @settings(max_examples=60)
    # a Raptor geometry with no inactive column: its generator build
    # once failed to reshape an empty bit matrix
    @example(family="raptor", k=12, seed=119, kind="permutation")
    def test_threshold_is_the_shortest_decodable_prefix(self, family, k,
                                                        seed, kind):
        code = build_code(family, k, seed=seed)
        span = 3 * k if code.n is None else code.n
        rng = np.random.default_rng(seed)
        if kind == "permutation":
            order = rng.permutation(span)
        elif kind == "repeats":
            order = rng.integers(0, span, size=2 * span)
        else:
            # fewer than k ids: no code decodes on these
            order = rng.permutation(span)[:int(rng.integers(0, k))]
        expected = shortest_decodable_prefix(code, order)
        if expected is None:
            with pytest.raises(DecodeFailure):
                code.packets_to_decode(order)
        else:
            assert code.packets_to_decode(order) == expected
