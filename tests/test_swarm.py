"""Swarm scenario engine: declarative scenarios, vectorized engine,
exact-replay agreement, CLI."""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError, ProtocolError
from repro.sim.swarm import (
    LossSpec,
    ReceiverGroup,
    Scenario,
    SwarmResult,
    SwarmSimulator,
    load_scenario,
    replay_receivers,
    run_scenario,
)

SCENARIOS_DIR = pathlib.Path(__file__).resolve().parent.parent \
    / "examples" / "scenarios"


def tiny_scenario(**overrides):
    """A fast homogeneous scenario for engine tests."""
    fields = dict(
        name="tiny",
        code="tornado-b",
        file_size=256 * 1024,
        packet_size=1024,
        block_packets=64,
        threshold_trials=16,
        seed=7,
        groups=[ReceiverGroup(name="all", count=200,
                              loss=LossSpec.make("bernoulli", p=0.1))],
    )
    fields.update(overrides)
    return Scenario(**fields)


class TestLossSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            LossSpec.make("weibull", p=0.1)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ParameterError):
            LossSpec.make("bernoulli", q=0.1)

    def test_rate_bounds_checked(self):
        with pytest.raises(ParameterError):
            LossSpec.make("bernoulli", p=1.0)
        with pytest.raises(ParameterError):
            LossSpec.make("gilbert", rate=0.2, burst=0.5)

    def test_range_normalised(self):
        spec = LossSpec.make("bernoulli", p=[0.1, 0.3])
        assert spec.param("p") == (0.1, 0.3)
        assert spec.to_dict() == {"kind": "bernoulli", "p": [0.1, 0.3]}

    def test_degenerate_range_collapses(self):
        assert LossSpec.make("bernoulli", p=[0.2, 0.2]).param("p") == 0.2

    def test_defaults_via_param(self):
        assert LossSpec.make("gilbert").param("burst") == 6.0


class TestReceiverGroup:
    def test_count_positive(self):
        with pytest.raises(ParameterError):
            ReceiverGroup(name="g", count=0)

    def test_loss_dict_coerced(self):
        group = ReceiverGroup(name="g", count=3,
                              loss={"kind": "bernoulli", "p": 0.2})
        assert isinstance(group.loss, LossSpec)

    def test_rate_fraction_and_level_exclusive(self):
        with pytest.raises(ParameterError):
            ReceiverGroup(name="g", count=1, rate_fraction=0.5, level=1)

    def test_rate_fraction_bounds(self):
        with pytest.raises(ParameterError):
            ReceiverGroup(name="g", count=1, rate_fraction=0.0)

    def test_unknown_field_rejected(self):
        with pytest.raises(ParameterError):
            ReceiverGroup.from_dict({"name": "g", "count": 1, "speed": 9})


class TestScenario:
    def test_round_trip_explicit(self):
        scenario = Scenario(
            name="rt", code="lt:c=0.05,delta=0.5",
            file_size=100_000, packet_size=500, block_packets=32,
            schedule="sequential", seed=3, layers=3,
            groups=[
                ReceiverGroup(name="a", count=5,
                              loss=LossSpec.make("gilbert",
                                                 rate=[0.1, 0.2], burst=4),
                              join=[0, 100], leave=5000, level=2),
                ReceiverGroup(name="b", count=7,
                              loss=LossSpec.make("trace", pool=4,
                                                 length=2000),
                              rate_fraction=[0.5, 1.0]),
            ])
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_round_trip_is_json(self):
        scenario = tiny_scenario()
        json.dumps(scenario.to_dict())  # must be plain JSON types

    def test_file_round_trip(self, tmp_path):
        scenario = tiny_scenario()
        path = tmp_path / "s.json"
        scenario.save(path)
        assert load_scenario(path) == scenario

    def test_code_canonicalised(self):
        scenario = tiny_scenario(code="lt:delta=0.1,c=0.03")
        assert scenario.code == "lt:c=0.03,delta=0.1"

    def test_bad_code_rejected(self):
        with pytest.raises(ParameterError):
            tiny_scenario(code="turbo-9000")

    def test_bad_schedule_rejected(self):
        with pytest.raises(ParameterError):
            tiny_scenario(schedule="fifo")

    def test_level_requires_layers(self):
        with pytest.raises(ParameterError):
            tiny_scenario(groups=[ReceiverGroup(name="g", count=1,
                                                level=1)])

    def test_level_bounds_checked(self):
        with pytest.raises(ParameterError):
            tiny_scenario(layers=2,
                          groups=[ReceiverGroup(name="g", count=1,
                                                level=5)])

    def test_not_a_scenario_dict(self):
        with pytest.raises(ProtocolError):
            Scenario.from_dict({"kind": "transfer"})

    def test_unknown_field_rejected(self):
        data = tiny_scenario().to_dict()
        data["pacing"] = 9
        with pytest.raises(ProtocolError):
            Scenario.from_dict(data)

    def test_scaled_preserves_proportions(self):
        scenario = tiny_scenario(groups=[
            ReceiverGroup(name="big", count=300),
            ReceiverGroup(name="small", count=100),
        ])
        scaled = scenario.scaled(40)
        assert [g.count for g in scaled.groups] == [30, 10]
        assert scaled.scaled(2).total_receivers >= 2  # every group >= 1

    def test_layer_rate_fractions(self):
        scenario = tiny_scenario(
            layers=4,
            groups=[ReceiverGroup(name="modem", count=1, level=0),
                    ReceiverGroup(name="lan", count=1, level=3)])
        assert scenario.group_rate_fraction(scenario.groups[0]) \
            == pytest.approx(1 / 8)
        assert scenario.group_rate_fraction(scenario.groups[1]) == 1.0


# Hypothesis strategies for scenario round-trips. Kept structurally
# small: round-tripping exercises the (de)serialisation logic, not the
# simulator.
_range_or_scalar = st.one_of(
    st.floats(0.01, 0.4),
    st.tuples(st.floats(0.01, 0.2), st.floats(0.21, 0.4)).map(list))

_loss_specs = st.one_of(
    st.builds(lambda p: LossSpec.make("bernoulli", p=p), _range_or_scalar),
    st.builds(lambda r, b: LossSpec.make("gilbert", rate=r, burst=b),
              _range_or_scalar, st.floats(1.0, 20.0)),
    st.builds(lambda n, length: LossSpec.make("trace", pool=n,
                                              length=length),
              st.integers(1, 8), st.integers(1000, 5000)),
)

_groups = st.builds(
    lambda name, count, loss, join: ReceiverGroup(
        name=name, count=count, loss=loss, join=join),
    st.text(alphabet="abcdefgh", min_size=1, max_size=8),
    st.integers(1, 50),
    _loss_specs,
    st.one_of(st.floats(0, 1000),
              st.tuples(st.floats(0, 100), st.floats(100, 1000)).map(list)),
)

_scenarios = st.builds(
    lambda name, groups, code, packets, block, schedule, seed: Scenario(
        name=name, groups=groups, code=code,
        file_size=packets * 512, packet_size=512, block_packets=block,
        schedule=schedule, seed=seed),
    st.text(alphabet="xyz-", min_size=1, max_size=10),
    st.lists(_groups, min_size=1, max_size=3),
    st.sampled_from(["tornado-a", "tornado-b", "lt", "rs",
                     "lt:c=0.05,delta=0.5"]),
    st.integers(1, 2000),
    st.integers(4, 256),
    st.sampled_from(["interleave", "sequential"]),
    st.integers(0, 2 ** 31),
)


class TestScenarioProperties:
    @given(scenario=_scenarios)
    @settings(max_examples=60, deadline=None)
    def test_json_round_trip(self, scenario):
        assert Scenario.from_json(scenario.to_json()) == scenario

    @given(scenario=_scenarios)
    @settings(max_examples=30, deadline=None)
    def test_dict_is_json_stable(self, scenario):
        once = json.dumps(scenario.to_dict(), sort_keys=True)
        again = json.dumps(
            Scenario.from_json(scenario.to_json()).to_dict(),
            sort_keys=True)
        assert once == again


class TestSwarmEngine:
    def test_lossless_mds_is_exact(self):
        # RS thresholds are exactly k and the channel delivers
        # everything: every receiver finishes at exactly one sweep with
        # zero overhead.
        scenario = tiny_scenario(
            code="rs", threshold_trials=4,
            groups=[ReceiverGroup(name="all", count=50,
                                  loss=LossSpec.make("bernoulli", p=0.0))])
        result = SwarmSimulator(scenario).run()
        assert result.completion_rate == 1.0
        assert np.allclose(result.overhead, 0.0)
        assert np.allclose(result.completion_slot, result.total_k)

    def test_deterministic_given_seed(self):
        a = SwarmSimulator(tiny_scenario()).run()
        b = SwarmSimulator(tiny_scenario()).run()
        assert np.array_equal(a.overhead, b.overhead)
        assert np.array_equal(a.completion_slot, b.completion_slot)

    def test_heavier_loss_costs_more(self):
        light = SwarmSimulator(tiny_scenario()).run()
        heavy = SwarmSimulator(tiny_scenario(
            groups=[ReceiverGroup(name="all", count=200,
                                  loss=LossSpec.make("bernoulli",
                                                     p=0.4))])).run()
        assert heavy.completion_slot.mean() > light.completion_slot.mean()

    def test_early_leavers_never_complete(self):
        scenario = tiny_scenario(groups=[
            ReceiverGroup(name="quitters", count=40,
                          loss=LossSpec.make("bernoulli", p=0.1),
                          leave=30.0)])
        result = SwarmSimulator(scenario).run()
        assert result.completion_rate == 0.0
        assert np.isnan(result.overhead).all()
        assert np.isinf(result.completion_slot).all()

    def test_late_joiners_finish_later(self):
        scenario = tiny_scenario(groups=[
            ReceiverGroup(name="early", count=100,
                          loss=LossSpec.make("bernoulli", p=0.1)),
            ReceiverGroup(name="late", count=100,
                          loss=LossSpec.make("bernoulli", p=0.1),
                          join=1000.0)])
        result = SwarmSimulator(scenario).run()
        groups = result.group_summaries()
        early = result.completion_slot[result.group_index == 0]
        late = result.completion_slot[result.group_index == 1]
        assert late.mean() > early.mean()
        assert {g["group"] for g in groups} == {"early", "late"}

    def test_workers_match_single_process_statistics(self):
        # every receiver reads its own channels, so a fan-out simulates
        # the same receivers draw for draw
        scenario = tiny_scenario()
        single = SwarmSimulator(scenario).run()
        fanned = SwarmSimulator(scenario).run(workers=2)
        for key in ("overhead", "received", "completion_slot",
                    "completed"):
            np.testing.assert_array_equal(getattr(fanned, key),
                                          getattr(single, key),
                                          err_msg=key)

    def test_overhead_cdf_monotone(self):
        result = SwarmSimulator(tiny_scenario()).run()
        grid, frac = result.overhead_cdf(points=20)
        assert (np.diff(frac) >= 0).all()
        assert frac[-1] == pytest.approx(1.0)

    def test_summary_is_json(self):
        result = SwarmSimulator(tiny_scenario()).run(spot_check=3)
        json.dumps(result.summary())


class TestStructuralAgreement:
    """The regression bar: vectorized results match exact replays."""

    @pytest.mark.parametrize("code", ["tornado-b", "lt", "rs"])
    def test_engine_matches_exact_replay(self, code):
        scenario = tiny_scenario(
            code=code, threshold_trials=12,
            groups=[ReceiverGroup(name="all", count=300,
                                  loss=LossSpec.make("bernoulli",
                                                     p=[0.05, 0.25]))])
        result = SwarmSimulator(scenario).run(spot_check=20)
        spot = result.spot_check
        assert spot.replay_completed.all()
        assert spot.agrees(0.05), (
            f"structural {spot.structural_mean:.4f} vs replay "
            f"{spot.replay_mean:.4f} (noise {spot.noise_scale:.4f})")

    def test_rate_thinned_carousel_duplicates_modelled(self):
        # A 20%-rate receiver on a fixed-rate carousel pays duplicate
        # wrap-arounds; the distinct-coverage correction must track the
        # real client through several revolutions.
        scenario = tiny_scenario(
            max_sweeps=60, threshold_trials=12,
            groups=[ReceiverGroup(name="slow", count=150,
                                  loss=LossSpec.make("bernoulli", p=0.1),
                                  rate_fraction=0.2)])
        result = SwarmSimulator(scenario).run(spot_check=12)
        assert result.completion_rate == 1.0
        # Duplicates make the overhead far exceed the lossless ideal.
        assert result.overhead_percentile(50) > 0.2
        assert result.spot_check.agrees(0.08)

    def test_replay_receivers_standalone(self):
        scenario = tiny_scenario()
        overhead, completed = replay_receivers(scenario, [0, 5, 7])
        assert completed.all()
        assert (overhead >= 0).all()

    def test_spot_check_completion_mismatch_disagrees(self):
        # The model says everyone finishes but most exact replays do
        # not: that is the gross failure the spot check exists for, and
        # it must not pass by vacuous noise bounds.
        from repro.sim.swarm import SpotCheckResult

        spot = SpotCheckResult(
            receiver_ids=np.arange(8),
            structural_overhead=np.full(8, 0.06),
            replay_overhead=np.array([0.05] + [np.nan] * 7),
            replay_completed=np.array([True] + [False] * 7))
        assert not spot.agrees()

    def test_spot_check_single_sample_cannot_agree(self):
        from repro.sim.swarm import SpotCheckResult

        spot = SpotCheckResult(
            receiver_ids=np.array([0]),
            structural_overhead=np.array([0.06]),
            replay_overhead=np.array([0.06]),
            replay_completed=np.array([True]))
        assert not spot.agrees()

    def test_spot_check_agrees_when_nobody_completes(self):
        from repro.sim.swarm import SpotCheckResult

        spot = SpotCheckResult(
            receiver_ids=np.arange(3),
            structural_overhead=np.full(3, np.nan),
            replay_overhead=np.full(3, np.nan),
            replay_completed=np.zeros(3, dtype=bool))
        assert spot.agrees()


#: scenarios whose every pooled threshold is the block's k: Tornado B
#: at k = 128 is its Reed-Solomon cap, Tornado A at 128 decodes at k on
#: every sampled order, and Reed-Solomon is MDS.  Joiners, leavers and
#: bursty channels all appear among them.
_DETERMINISTIC = ("flash_crowd", "midstream_joiners", "satellite_longhaul")


def _engine_result(scenario, pop, run):
    """The engine's rows as the :class:`SwarmResult` a run reports."""
    return SwarmResult(scenario=scenario, received=run["received"],
                       completion_slot=run["done_slot"],
                       group_index=pop.group_index,
                       total_k=scenario.plan().total_packets, elapsed=0.0)


class TestExactEngine:
    """With a deterministic threshold the engine *is* the replay: the
    same slots, the same channels, receiver for receiver."""

    @pytest.mark.parametrize("closed", [False, True],
                             ids=["open", "closed"])
    @pytest.mark.parametrize("name", _DETERMINISTIC)
    def test_engine_equals_the_replay(self, name, closed):
        from repro.protocol import AdaptivePolicy
        from repro.sim.swarm import _materialize, _replay, _run_rows

        scenario = load_scenario(SCENARIOS_DIR / f"{name}.json").scaled(600)
        pop = _materialize(scenario)
        thresholds = SwarmSimulator(scenario)._thresholds(pop)
        k_b = np.asarray(scenario.plan().block_ks)
        assert (thresholds == k_b[None, :]).all()
        run = _run_rows(scenario, pop, thresholds, 0,
                        AdaptivePolicy() if closed else None)
        ids = np.random.default_rng(41).choice(pop.size, 80, replace=False)
        overhead, completed, slot = _replay(scenario, ids, pop,
                                            run.get("weights"))
        assert completed.any()
        engine = _engine_result(scenario, pop, run)
        np.testing.assert_array_equal(completed, engine.completed[ids])
        np.testing.assert_array_equal(overhead, engine.overhead[ids])
        np.testing.assert_array_equal(slot, run["done_slot"][ids])

    @pytest.mark.parametrize("closed", [False, True],
                             ids=["open", "closed"])
    @pytest.mark.parametrize("schedule", ["interleave", "sequential"])
    def test_every_loss_kind_and_tier_equals_the_replay(self, schedule,
                                                        closed):
        """Reed-Solomon decodes at exactly ``k``, so on a population
        mixing every loss kind, joiners, leavers and thinned rate tiers
        the engine and the replay agree for every receiver."""
        from repro.protocol import AdaptivePolicy
        from repro.sim.swarm import _materialize, _replay, _run_rows

        scenario = tiny_scenario(
            code="rs", file_size=48 * 1024, block_packets=16,
            schedule=schedule, max_sweeps=30, groups=[
                ReceiverGroup(name="tier", count=12,
                              loss=LossSpec.make("bernoulli", p=[0.0, 0.2]),
                              rate_fraction=[0.3, 0.9], join=[0, 40]),
                ReceiverGroup(name="bursty", count=12,
                              loss=LossSpec.make("gilbert", rate=[0.1, 0.3],
                                                 burst=[2.0, 9.0]),
                              join=[0, 60], leave=[30, 160]),
                ReceiverGroup(name="trace", count=12,
                              loss=LossSpec.make("trace", pool=3,
                                                 length=2000),
                              join=[0, 70])])
        pop = _materialize(scenario)
        thresholds = SwarmSimulator(scenario)._thresholds(pop)
        assert (thresholds == 16).all()
        run = _run_rows(scenario, pop, thresholds, 0,
                        AdaptivePolicy() if closed else None)
        ids = np.arange(pop.size)
        overhead, completed, slot = _replay(scenario, ids, pop,
                                            run.get("weights"))
        assert completed.any() and not completed.all()
        engine = _engine_result(scenario, pop, run)
        np.testing.assert_array_equal(completed, engine.completed)
        np.testing.assert_array_equal(overhead, engine.overhead)
        np.testing.assert_array_equal(slot, run["done_slot"])

    def test_carousel_duplicates_inside_one_sweep(self):
        """A closed loop may deal one block more than its ``n_b`` slots
        in a sweep: every id past the first sight is a duplicate there
        too, as the real client counts it."""
        from repro.sim.swarm import _materialize, _replay, _run_rows

        class Starve:
            def block_shares(self, deficits, block_ks):
                return [0.9] + [0.1 / (len(block_ks) - 1)] * (
                    len(block_ks) - 1)

        scenario = tiny_scenario(
            code="rs", file_size=32 * 1024, block_packets=8,
            groups=[ReceiverGroup(name="all", count=40,
                                  loss=LossSpec.make("bernoulli",
                                                     p=[0.5, 0.7]))])
        pop = _materialize(scenario)
        thresholds = SwarmSimulator(scenario)._thresholds(pop)
        run = _run_rows(scenario, pop, thresholds, 0, Starve())
        # block 0 gets 0.9 of 32 slots, past its n of 16, and at this
        # loss its 16 distinct ids fall short of its k of 8 for some
        assert 0.9 * 32 > 16
        overhead, completed, slot = _replay(scenario, np.arange(40), pop,
                                            run["weights"])
        assert completed.sum() >= 30
        engine = _engine_result(scenario, pop, run)
        np.testing.assert_array_equal(completed, engine.completed)
        np.testing.assert_array_equal(overhead, engine.overhead)
        np.testing.assert_array_equal(slot, run["done_slot"])


class TestCommittedScenarios:
    @pytest.mark.parametrize("name", [
        "flash_crowd", "satellite_longhaul", "mobile_traces",
        "layered_tiers", "midstream_joiners"])
    def test_loads_and_validates(self, name):
        scenario = load_scenario(SCENARIOS_DIR / f"{name}.json")
        assert scenario.total_receivers >= 10_000

    def test_flash_crowd_scaled_run(self):
        result = run_scenario(SCENARIOS_DIR / "flash_crowd.json",
                              receivers=1500)
        assert result.completion_rate == 1.0
        assert result.summary()["overhead_p99"] < 0.5


class TestSwarmCli:
    def test_run_with_json_output(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "s.json"
        tiny_scenario().save(path)
        out = tmp_path / "summary.json"
        assert main(["swarm", "run", str(path), "--receivers", "80",
                     "--spot-check", "4", "--json", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "reception overhead" in printed
        assert "spot check" in printed
        summary = json.loads(out.read_text())
        assert summary["receivers"] == 80
        assert summary["completion_rate"] == 1.0
        assert summary["spot_check"]["sample_size"] == 4

    def test_compare_tabulates_all(self, tmp_path, capsys):
        from repro.cli import main

        paths = []
        for code in ("tornado-b", "rs"):
            path = tmp_path / f"{code}.json"
            tiny_scenario(name=f"cmp-{code}", code=code,
                          threshold_trials=6).save(path)
            paths.append(str(path))
        assert main(["swarm", "compare", *paths,
                     "--receivers", "60"]) == 0
        printed = capsys.readouterr().out
        assert "cmp-tornado-b" in printed and "cmp-rs" in printed

    def test_missing_scenario_errors(self, tmp_path):
        from repro.cli import main

        assert main(["swarm", "run", str(tmp_path / "nope.json")]) == 2
