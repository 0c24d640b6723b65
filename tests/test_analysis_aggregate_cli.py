"""Analysis tools, multi-source aggregation, and the file CLI."""

import numpy as np
import pytest

from repro.codes.tornado.analysis import (
    asymptotic_threshold,
    density_evolution_converges,
    finite_length_threshold,
    overhead_lower_bound,
    peel_single_graph,
)
from repro.codes.tornado.degree import (
    heavy_tail_distribution,
    two_point_distribution,
)
from repro.codes.tornado.graph import _configuration_model
from repro.codes.tornado.presets import tornado_a
from repro.errors import DecodeFailure, ParameterError
from repro.fountain.aggregate import (
    MultiSourceClient,
    simulate_aggregate_download,
)
from repro.net.loss import BernoulliLoss, GilbertElliottLoss
from repro.utils.rng import ensure_rng
from repro import cli


class TestDensityEvolution:
    def test_low_delta_converges(self):
        dist = two_point_distribution(3, 20, 0.30)
        assert density_evolution_converges(dist, 0.30)

    def test_above_capacity_diverges(self):
        dist = two_point_distribution(3, 20, 0.30)
        assert not density_evolution_converges(dist, 0.499)

    def test_threshold_in_sane_band(self):
        dist = two_point_distribution(3, 20, 0.30)
        threshold = asymptotic_threshold(dist, tolerance=1e-3)
        assert 0.40 < threshold < 0.50

    def test_heavy_tail_threshold_known_value(self):
        """Heavy-tail D=8 with near-regular right: threshold ~0.47."""
        threshold = asymptotic_threshold(heavy_tail_distribution(8),
                                         tolerance=1e-3)
        assert threshold == pytest.approx(0.472, abs=0.01)

    def test_overhead_bound_consistent(self):
        dist = two_point_distribution(3, 20, 0.30)
        bound = overhead_lower_bound(dist)
        assert bound == pytest.approx(
            1 - 2 * asymptotic_threshold(dist), abs=5e-3)

    def test_delta_validation(self):
        with pytest.raises(ParameterError):
            density_evolution_converges(two_point_distribution(3, 20, 0.3),
                                        1.5)


class TestSingleGraphPeeling:
    def test_no_loss_nothing_to_do(self):
        g = _configuration_model(100, 50, two_point_distribution(3, 20, 0.3),
                                 ensure_rng(0))
        assert peel_single_graph(g, np.array([], dtype=np.int64)) == 0

    def test_light_loss_recovers(self):
        g = _configuration_model(400, 200,
                                 two_point_distribution(3, 20, 0.3),
                                 ensure_rng(1))
        lost = ensure_rng(2).permutation(400)[:60]  # 15% loss
        assert peel_single_graph(g, lost) == 0

    def test_overload_cannot_recover(self):
        """More erasures than checks is information-theoretically dead."""
        g = _configuration_model(100, 50,
                                 two_point_distribution(3, 20, 0.3),
                                 ensure_rng(3))
        lost = ensure_rng(4).permutation(100)[:70]
        assert peel_single_graph(g, lost) > 0

    def test_finite_threshold_below_asymptotic(self):
        dist = two_point_distribution(3, 20, 0.30)
        finite = finite_length_threshold(dist, 300, trials=6, rng=5)
        asym = asymptotic_threshold(dist, tolerance=1e-3)
        assert finite.threshold <= asym + 0.02


class TestAggregation:
    def test_multi_source_client_counts(self):
        code = tornado_a(200, seed=0)
        client = MultiSourceClient(code)
        client.receive_from(0, 5)
        client.receive_from(1, 5)  # duplicate across mirrors
        client.receive_from(1, 6)
        assert client.stats().total_received == 3
        assert client.stats().distinct_received == 2
        assert client.reports[1].duplicate_rate == pytest.approx(0.5)

    def test_more_mirrors_faster(self):
        code = tornado_a(300, seed=1)
        loss = BernoulliLoss(0.2)
        one = simulate_aggregate_download(code, 1, loss, rng=2)
        four = simulate_aggregate_download(code, 4, loss, rng=3)
        assert four.slots < one.slots
        assert four.stats.distinctness_efficiency <= 1.0

    def test_single_mirror_matches_plain_carousel_order_of_magnitude(self):
        code = tornado_a(300, seed=1)
        result = simulate_aggregate_download(code, 1, BernoulliLoss(0.0),
                                             rng=4)
        # No loss, one mirror: completes within ~ (1+eps)k slots.
        assert result.slots <= 1.35 * code.k

    def test_bursty_loss_keeps_its_bursts(self):
        """Each mirror crosses a channel of its own, which asks the
        model for whole chunks and carries the chain between them: the
        loss runs it hands out keep their mean burst (asked one slot at
        a time from a fresh chain, the runs averaged ~1.25)."""
        handed = []

        class Recording(GilbertElliottLoss):
            def draw(self, count, rng, state):
                lost, state = super().draw(count, rng, state)
                handed.append(lost)
                return lost, state

        model = Recording.from_loss_and_burst(0.2, 10.0)
        simulate_aggregate_download(tornado_a(300, seed=1), 4, model, rng=6)
        edges = np.diff(np.concatenate(
            [[0], np.concatenate(handed).astype(np.int8), [0]]))
        runs = np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)
        assert len(runs) >= 20
        assert runs.mean() >= 5

    def test_index_validation(self):
        code = tornado_a(100, seed=2)
        client = MultiSourceClient(code)
        with pytest.raises(ParameterError):
            client.receive_from(0, code.n)

    def test_impossible_download_raises(self):
        code = tornado_a(150, seed=3)
        from repro.net.loss import TraceLoss
        outage = TraceLoss(np.ones(8, dtype=bool))
        with pytest.raises(DecodeFailure):
            simulate_aggregate_download(code, 2, outage, rng=5, max_cycles=2)


class TestCli:
    def test_info(self, capsys):
        assert cli.main(["info", "--k", "500"]) == 0
        out = capsys.readouterr().out
        assert "tornado-a k=500" in out

    def test_codes_list(self, capsys):
        assert cli.main(["codes", "list"]) == 0
        out = capsys.readouterr().out
        # Every registered family appears, with parameters and modes.
        for family in ("tornado-a", "tornado-b", "lt", "rs", "raptor"):
            assert f"\n{family}\n" in f"\n{out}"
        assert "c=0.03" in out and "delta=0.1" in out
        assert "eps=0.05" in out  # raptor's precode rate, with default
        assert "construction='cauchy'" in out
        assert "carousel" in out and "rateless" in out and "layered" in out
        assert "yes (no n)" in out  # lt is flagged rateless

    def test_codes_cache_stats(self, capsys):
        """cache-stats reports the raptor geometry+plan cache counters,
        and they move when the shared cache is exercised."""
        import json

        from repro.codes.raptor.cache import cached_raptor_assets

        assert cli.main(["codes", "cache-stats", "--json"]) == 0
        before = json.loads(capsys.readouterr().out)
        stats = before["caches"]["raptor-geometry-plan"]
        assert {"size", "weight", "maxsize", "hits", "misses", "evictions",
                "plans_cached", "geometry_seconds",
                "plan_seconds"} <= set(stats)

        cached_raptor_assets(12, seed=321)   # miss (or prior entry)
        cached_raptor_assets(12, seed=321)   # guaranteed hit
        # A spec nothing else asks for: a certain cold build, plan included.
        cached_raptor_assets(13, eps=0.0625, seed=4321).encode_plan()
        assert cli.main(["codes", "cache-stats", "--json"]) == 0
        after = json.loads(capsys.readouterr().out)["caches"][
            "raptor-geometry-plan"]
        assert after["hits"] > stats["hits"]
        assert after["size"] >= 1
        assert after["weight"] >= 13
        # Cold start is on the record: time beside the miss and plan counts.
        assert after["geometry_seconds"] > stats["geometry_seconds"]
        assert after["plan_seconds"] > stats["plan_seconds"]

        # The human-readable table carries the same counters.
        assert cli.main(["codes", "cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "raptor-geometry-plan" in out
        assert "hits:" in out and "misses:" in out
        assert "geometry_seconds:" in out and "plan_seconds:" in out

    def test_codes_list_json(self, capsys):
        """--json shares the table's rows, machine-readable."""
        import json

        assert cli.main(["codes", "list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        families = {row["name"]: row for row in payload["families"]}
        assert set(families) == {"tornado-a", "tornado-b", "lt", "rs",
                                 "interleaved", "raptor"}
        assert families["lt"]["rateless"] is True
        assert families["lt"]["parameters"] == {"c": 0.03, "delta": 0.1}
        assert families["rs"]["parameters"]["construction"] == "cauchy"
        # Raptor rides the same tunable discovery: every knob surfaces
        # with its default so spec strings are self-documenting.
        assert families["raptor"]["rateless"] is True
        assert families["raptor"]["parameters"] == {
            "eps": 0.05, "c": 0.03, "delta": 0.1}
        assert "rateless" in families["raptor"]["modes"]
        assert "layered" in families["tornado-a"]["modes"]
        # The JSON rows and the human table come from one formatter.
        assert set(families) == {row["name"] for row in cli._family_rows()}

    def test_send_accepts_spec_strings(self, tmp_path, capsys):
        original = tmp_path / "input.bin"
        original.write_bytes(bytes(np.random.default_rng(2).integers(
            0, 256, 30_000, dtype=np.uint8)))
        out_dir = tmp_path / "out"
        assert cli.main(["send", str(original), str(out_dir),
                         "--code", "lt:c=0.05,delta=0.5",
                         "--block-size", "8192", "--loss", "0.1"]) == 0
        assert "lt:c=0.05,delta=0.5" in capsys.readouterr().out
        back = tmp_path / "back.bin"
        assert cli.main(["recv", str(out_dir), str(back)]) == 0
        assert back.read_bytes() == original.read_bytes()

    def test_send_rejects_unknown_spec(self, tmp_path, capsys):
        original = tmp_path / "input.bin"
        original.write_bytes(b"z" * 10_000)
        assert cli.main(["send", str(original), str(tmp_path / "out"),
                         "--code", "raptorq"]) == 2
        assert "registered families" in capsys.readouterr().err
