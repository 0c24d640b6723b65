"""LT rateless codes: soliton pmfs, droplet streams, decode thresholds."""

import math

import numpy as np
import pytest

from repro.codes.lt import (
    DropletSpec,
    LTCode,
    ideal_soliton,
    robust_soliton,
    robust_soliton_normaliser,
    robust_soliton_spike,
)
from repro.codes.registry import SetDecoder, feed
from repro.errors import DecodeFailure, ParameterError
from repro.transfer import TransferClient

from _oracles import single_block_server


def random_source(k, payload=24, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(k, payload), dtype=np.uint8)


class TestSolitonDistributions:
    @pytest.mark.parametrize("k", [1, 2, 10, 100, 1000])
    def test_ideal_sums_to_one(self, k):
        dist = ideal_soliton(k)
        assert math.isclose(sum(dist.probabilities), 1.0, abs_tol=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 10, 100, 1000])
    def test_robust_sums_to_one(self, k):
        dist = robust_soliton(k)
        assert math.isclose(sum(dist.probabilities), 1.0, abs_tol=1e-9)

    def test_ideal_closed_form(self):
        k = 50
        dist = ideal_soliton(k)
        pmf = dict(zip(dist.degrees, dist.probabilities))
        assert math.isclose(pmf[1], 1 / k)
        for d in range(2, k + 1):
            assert math.isclose(pmf[d], 1 / (d * (d - 1)))

    def test_robust_closed_form(self):
        k, c, delta = 100, 0.05, 0.2
        s = c * math.log(k / delta) * math.sqrt(k)
        spike = robust_soliton_spike(k, c, delta)
        assert spike == max(1, min(k, round(k / s)))
        z = robust_soliton_normaliser(k, c, delta)
        dist = robust_soliton(k, c=c, delta=delta)
        pmf = dict(zip(dist.degrees, dist.probabilities))
        # Luby's mu(d) = (rho(d) + tau(d)) / Z, checked at the three
        # regimes: below the spike, at the spike, above the spike.
        assert math.isclose(pmf[1], (1 / k + s / k) / z)
        d = spike // 2
        assert math.isclose(pmf[d], (1 / (d * (d - 1)) + s / (k * d)) / z)
        assert math.isclose(
            pmf[spike],
            (1 / (spike * (spike - 1)) + s * math.log(s / delta) / k) / z)
        d = spike + 1
        assert math.isclose(pmf[d], (1 / (d * (d - 1))) / z)

    def test_robust_average_degree_logarithmic(self):
        assert robust_soliton(100).average_degree < 12
        assert robust_soliton(1000).average_degree < 16

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            ideal_soliton(0)
        with pytest.raises(ParameterError):
            robust_soliton(10, delta=1.5)
        with pytest.raises(ParameterError):
            robust_soliton(10, c=-1)


class TestDropletSpec:
    def test_deterministic_across_instances(self):
        a = DropletSpec(200, robust_soliton(200), seed=5)
        b = DropletSpec(200, robust_soliton(200), seed=5)
        for droplet_id in (0, 1, 17, 2**20):
            assert np.array_equal(a.neighbours(droplet_id),
                                  b.neighbours(droplet_id))

    def test_different_seeds_differ(self):
        a = DropletSpec(200, robust_soliton(200), seed=5)
        b = DropletSpec(200, robust_soliton(200), seed=6)
        same = sum(np.array_equal(a.neighbours(i), b.neighbours(i))
                   for i in range(50))
        assert same < 50

    def test_neighbours_distinct_and_in_range(self):
        spec = DropletSpec(100, robust_soliton(100), seed=1)
        for droplet_id in range(200):
            nbrs = spec.neighbours(droplet_id)
            assert len(set(nbrs.tolist())) == nbrs.size
            assert nbrs.min() >= 0 and nbrs.max() < 100

    def test_empirical_degrees_follow_pmf(self):
        k = 100
        spec = DropletSpec(k, robust_soliton(k), seed=3)
        degrees = [spec.degree(i) for i in range(2000)]
        observed_share_deg1 = degrees.count(1) / len(degrees)
        pmf = dict(zip(spec.degree_dist.degrees,
                       spec.degree_dist.probabilities))
        assert abs(observed_share_deg1 - pmf[1]) < 0.02
        assert abs(np.mean(degrees) - spec.average_degree) < 0.5

    def test_degree_support_capped_by_k(self):
        with pytest.raises(ParameterError):
            DropletSpec(10, robust_soliton(100), seed=0)


class TestRoundTrip:
    def test_payload_roundtrip_sequential_droplets(self):
        code = LTCode(150, seed=2)
        src = random_source(150, seed=3)
        enc = code.encode(src, count=190)
        rec = code.decode({i: enc[i] for i in range(190)})
        assert np.array_equal(rec, src)

    def test_payload_roundtrip_sparse_ids(self):
        """Any droplet subset works — ids far apart, out of order."""
        code = LTCode(80, seed=4)
        src = random_source(80, seed=5)
        encoder = code.encoder(src)
        rng = np.random.default_rng(6)
        ids = rng.choice(10**6, size=100, replace=False)
        rec = code.decode({int(i): encoder.droplet_payload(int(i))
                           for i in ids})
        assert np.array_equal(rec, src)

    def test_decode_insufficient_fails(self):
        code = LTCode(100, seed=7)
        src = random_source(100, seed=8)
        enc = code.encode(src, count=120)
        with pytest.raises(DecodeFailure):
            code.decode({i: enc[i] for i in range(60)})

    def test_incremental_matches_batch(self):
        code = LTCode(120, seed=9)
        rng = np.random.default_rng(10)
        order = rng.permutation(600)[:300].tolist()
        needed = code.packets_to_decode(order)
        dec = code.new_decoder()
        for pos, droplet_id in enumerate(order):
            dec.add_packet(droplet_id)
            if dec.is_complete:
                assert pos + 1 == needed
                break
        assert dec.is_complete

    def test_duplicates_counted_not_harmful(self):
        code = LTCode(50, seed=11)
        dec = code.new_decoder()
        assert dec.add_packet(3)
        assert not dec.add_packet(3)
        assert dec.duplicates_seen == 1
        assert dec.packets_added == 1

    def test_k_one(self):
        code = LTCode(1, seed=0)
        src = np.asarray([[9, 8, 7]], dtype=np.uint8)
        enc = code.encode(src, count=2)
        assert np.array_equal(code.decode({1: enc[1]}), src)

    def test_pure_peeling_needs_more_droplets(self):
        """Disabling inactivation reproduces Luby's higher overhead."""
        k = 300
        ml = LTCode(k, seed=12)
        pure = LTCode(k, seed=12, inactivation_limit=0)
        rng = np.random.default_rng(13)
        orders = [rng.permutation(4 * k).tolist() for _ in range(5)]
        ml_needs = np.mean([ml.packets_to_decode(o) for o in orders])
        pure_needs = np.mean([pure.packets_to_decode(o) for o in orders])
        assert ml_needs < pure_needs


class TestAcceptanceOverhead:
    """ISSUE acceptance: <= 1.15k random droplets decode in >= 95% of
    50 seeded trials, for k in {100, 1000}, via the shared engine."""

    @pytest.mark.parametrize("k", [100, 1000])
    def test_decode_within_fifteen_percent_overhead(self, k):
        code = LTCode(k, seed=1)
        budget = int(1.15 * k)
        successes = 0
        for trial in range(50):
            rng = np.random.default_rng(1000 + trial)
            ids = rng.permutation(4 * k)[:budget].tolist()
            decoder = code.new_decoder()
            decoder.add_packets(ids)
            successes += int(decoder.is_complete)
        assert successes >= 48, f"k={k}: only {successes}/50 decoded"

    def test_same_engine_as_tornado(self):
        """Both decoders are the one PeelingEngine, as the issue demands."""
        from repro.codes.lt.decoder import LTDecoder
        from repro.codes.peeling import PeelingEngine
        from repro.codes.tornado.decoder import PeelingDecoder
        assert issubclass(LTDecoder, PeelingEngine)
        assert issubclass(PeelingDecoder, PeelingEngine)


class TestFountainIntegration:
    def test_rateless_server_lossy_channel_roundtrip(self):
        src = random_source(90, payload=32, seed=15)
        server = single_block_server("lt", src, seed=14)
        client = TransferClient(server.codec)
        drop = np.random.default_rng(16)
        for packet in server.packets():
            if drop.random() < 0.4:     # 40% loss: the fountain shrugs
                continue
            if client.receive(packet):
                break
        assert np.array_equal(client.block_data(0), src)
        stats = client.block_stats(0)
        assert stats.distinctness_efficiency == 1.0
        assert stats.coding_efficiency > 0.7

    def test_statistical_mode_client(self):
        src = random_source(60, payload=16, seed=18)
        server = single_block_server("lt", src, seed=17)
        # the paper's statistical protocol: a first decode attempt after
        # 5 % more than k distinct packets, then one every 8 more
        decoder = SetDecoder(server.codec.code_for(0), payload_size=16,
                             first_attempt=math.ceil(1.05 * 60),
                             retry_step=8)
        for packet in server.packets(200):
            feed(decoder, (packet.index,), packet.payload[np.newaxis])
            if decoder.is_complete:
                break
        assert decoder.is_complete
        assert np.array_equal(decoder.source_data(), src)
        assert decoder.decode_attempts >= 1

    def test_server_requires_source_for_payload_packets(self):
        server = single_block_server("lt", random_source(10), seed=21,
                                     data=False)
        assert server.window(4)[1].tolist() == [0, 1, 2, 3]
        with pytest.raises(ParameterError):
            next(server.packets(1))

    def test_droplet_is_a_pure_function_of_its_id(self):
        """A rateless block's emission t carries droplet t whatever the
        transmission seed: a fork under another seed, or another server
        over the same code, repeats the same droplets."""
        src = random_source(40, payload=8, seed=20)
        server = single_block_server("lt", src, seed=19)
        want = [p.to_bytes() for p in server.packets(50)]
        server.reset()
        assert [p.to_bytes() for p in server.fork(seed=99).packets(50)] == (
            want)
        encoder = server.codec.code_for(0).encoder(src)
        for index, record in enumerate(want):
            assert record[12:] == encoder.droplet_payload(index).tobytes()

    def test_header_index_carries_droplet_id(self):
        server = single_block_server(
            "lt", random_source(30, payload=8, seed=23), seed=22)
        packets = list(server.packets(3))
        assert [p.index for p in packets] == [0, 1, 2]
        assert [p.serial for p in packets] == [0, 1, 2]


class TestCli:
    def test_lt_cli_sim_and_info(self, capsys):
        from repro.cli import main
        assert main(["lt", "sim", "--k", "80", "--trials", "2",
                     "--seed", "3"]) == 0
        assert main(["lt", "info", "--k", "80"]) == 0
        output = capsys.readouterr().out
        assert "reception overhead" in output
        assert "rateless" in output
