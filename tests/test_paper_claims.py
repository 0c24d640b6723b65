"""The paper's claims (``repro.experiments.claims``), asserted at tier-1
scale, and the runners' structure read off the same results: every
runner runs once per session."""

import functools

import numpy as np
import pytest

from repro.codes.lt import LTCode
from repro.codes.registry import feed, incremental_decoder
from repro.codes.tornado.code import TornadoCode
from repro.codes.tornado.degree import (
    regular_distribution,
    two_point_distribution,
)
from repro.codes.tornado.presets import tornado_a
from repro.experiments import claims, figure2, figure4, figure5, figure6
from repro.experiments import figure8, table1, table2, table3, table4, table5
from repro.experiments.report import Table, render_series, render_table, seconds
from repro.sim.overhead import sample_decode_thresholds
from repro.transfer.schedule import carousel_order

PAPER_ARTEFACTS = {"Table 1", "Table 2", "Table 3", "Table 4", "Table 5",
                   "Figure 2", "Figure 4", "Figure 5", "Figure 6", "Figure 8"}


@functools.cache
def result(runner):
    return claims.RUNS[runner]()


@pytest.mark.parametrize("claim", claims.CLAIMS, ids=[
    f"{claim.runner}-{n}" for n, claim in enumerate(claims.CLAIMS)])
def test_claim(claim):
    """The measured value lies in the band; the paper's lies outside it
    exactly when the claim is a known gap with a stated reason."""
    measured = float(claim.measure(result(claim.runner)))
    assert claim.holds(measured), (
        f"{claim.artefact}: {claim.claim}: measured {measured:.4g} outside "
        f"{claim.band}")
    assert claim.known_gap == bool(claim.gap), (
        f"{claim.artefact}: {claim.claim}: paper {claim.paper} against band "
        f"{claim.band}, stated gap {claim.gap!r}")


def test_every_paper_artefact_has_a_claim():
    assert PAPER_ARTEFACTS <= {claim.artefact for claim in claims.CLAIMS}


def test_the_report_marks_each_known_gap():
    verdicts = [line.split()[0] for line in claims.report(
        {name: result(name) for name in claims.RUNS}).splitlines()
        if not line.startswith(" ")]
    assert verdicts == ["gap" if claim.known_gap else "ok"
                        for claim in claims.CLAIMS]


RENDER = {
    "table1": lambda r: render_table(table1.build_table(r)),
    "table2": lambda r: render_table(table2.build_table(r)),
    "table3": lambda r: render_table(table3.build_table(r)),
    "table4": lambda r: render_table(table4.build_table(r)),
    "table5": lambda r: render_table(table5.build_table(r[0], 4, 8, *r[1:])),
    "figure2": figure2.render,
    "figure4": figure4.render,
    "figure5": figure5.render,
    "figure6": figure6.render,
    "figure8": figure8.render,
}


@pytest.mark.parametrize("runner", list(RENDER))
def test_runner_renders(runner):
    assert RENDER[runner](result(runner))


class TestRunnerStructure:
    def test_table1_names_the_basic_operations(self):
        assert "XOR" in RENDER["table1"](result("table1"))

    def test_table2_extrapolates_rs_above_its_largest_timed_size(self):
        cells = result("table2").cells["cauchy"]
        assert not cells[256].extrapolated and cells[512].extrapolated
        assert cells[512].seconds == pytest.approx(4 * cells[256].seconds)

    def test_table3_tornado_decodes_from_at_least_k_packets(self):
        for used in result("table3").tornado_packets_used.values():
            assert all(packets >= size for size, packets in used.items())

    def test_table4_higher_loss_allows_no_more_blocks(self):
        entries = result("table4").entries[4000]
        assert 1 <= entries[0.5].num_blocks <= entries[0.1].num_blocks

    def test_table5_says_it_matches_the_paper(self):
        _, _, matches = result("table5")
        assert matches

    def test_figure2_b_buys_a_lower_overhead_between_k_and_n(self):
        stats = result("figure2").stats
        assert set(stats) == {"tornado-a", "tornado-b"}
        assert stats["tornado-b"].mean < stats["tornado-a"].mean
        for st in stats.values():  # stretch 2: n = 2 k
            assert 0 <= st.minimum and st.maximum <= 1

    def test_figure4_has_a_point_per_receiver_count(self):
        for points in result("figure4").curves[0.5].values():
            assert [pt.receivers for pt in points] == [1, 10, 100, 1000,
                                                       10000]

    def test_figure6_runs_every_code(self):
        labels = {r.code_label for r in result("figure6").results}
        assert labels == {"tornado", "interleaved-k50", "interleaved-k20"}


class TestFigure8Pin:
    """Per-receiver rows of the claims' Figure 8 run, recorded before the
    layered walk and its id map moved into ``protocol/schedule.py`` and
    ``protocol/session.py`` (the 40 % single-layer row since): the move
    must not change one value."""

    SINGLE = [
        (0.09582309582309578, 0.8152173913043478, 0.8152173913043478,
         1.0, True, 1, 0),
        (0.2915811088295688, 0.8695652173913043, 0.8695652173913043,
         1.0, True, 1, 0),
        (0.6091324200913242, 0.7009345794392523, 0.8426966292134831,
         0.8317757009345794, True, 2, 0),
        (0.39682539682539686, 0.8771929824561403, 0.8771929824561403,
         1.0, True, 1, 0),
    ]
    LAYERED = [
        (0.3403846153846154, 0.8746355685131195, 0.8746355685131195,
         1.0, True, 105, 0),
        (0.23709369024856597, 0.7518796992481203, 0.8130081300813008,
         0.924812030075188, True, 89, 2),
        (0.22173913043478266, 0.8379888268156425, 0.8645533141210374,
         0.9692737430167597, True, 89, 2),
        (0.1549893842887473, 0.7537688442211056, 0.821917808219178,
         0.9170854271356784, True, 46, 2),
    ]

    @staticmethod
    def _rows(results):
        return [(r.observed_loss, r.efficiency, r.coding_efficiency,
                 r.distinctness_efficiency, r.completed, r.rounds,
                 r.level_changes) for r in results]

    def test_small_figure8_rows_are_pinned(self):
        run = result("figure8")
        assert self._rows(run.single_layer) == self.SINGLE
        assert self._rows(run.layered) == self.LAYERED


def test_two_point_left_degrees_beat_a_regular_graph():
    """Beyond the paper: the presets' two-point 3/20 left degrees need
    at most 0.8 of a regular degree-4 graph's reception overhead."""
    k = 512
    overhead = {name: sample_decode_thresholds(TornadoCode(
        k, degree_dist=dist, seed=0), 10, rng=2).mean() / k - 1
        for name, dist in (("two-point", two_point_distribution(3, 20, 0.30)),
                           ("regular-4", regular_distribution(4)))}
    assert 0 < overhead["two-point"] <= 0.8 * overhead["regular-4"]


@pytest.mark.parametrize("k", [256, 1024])
def test_lt_needs_less_overhead_than_tornado_a(k):
    """Beyond the paper: LT (inactivation decoding) decodes from between
    k and 1.5 k droplets, below 0.15 overhead and below Tornado A."""
    gen = np.random.default_rng(2)
    code = LTCode(k, seed=0)
    lt = np.array([code.packets_to_decode(gen.permutation(6 * k))
                   for _ in range(8)]) / k - 1
    tornado = sample_decode_thresholds(tornado_a(k, seed=0), 8, rng=2) / k - 1
    assert 0 <= lt.min() and lt.max() <= 0.5
    assert lt.mean() < min(0.15, tornado.mean())


def test_lt_beats_the_carousels_total_reception():
    """Beyond the paper: at 20 % loss a Tornado A carousel counts every
    reception, duplicates included, until it decodes; LT droplets are
    all distinct, so fewer are needed."""
    k, loss = 256, 0.2
    code = tornado_a(k, seed=0)
    decoder = incremental_decoder(code)
    drop = np.random.default_rng(2)
    carousel_total = 0
    for index in np.resize(carousel_order(code.n, 1), 20 * k):
        if drop.random() < loss:
            continue
        carousel_total += feed(decoder, (int(index),))
        if decoder.is_complete:
            break
    lt_needed = LTCode(k, seed=0).packets_to_decode(
        np.random.default_rng(3).permutation(6 * k))
    assert decoder.is_complete and lt_needed < carousel_total


class TestReport:
    def test_render_table_alignment(self):
        table = Table(title="T", header=["a", "bbbb"], rows=[["1", "2"]])
        out = render_table(table)
        assert "T" in out and "bbbb" in out

    def test_render_series(self):
        out = render_series("S", "x", "y", [("s1", [1, 2], [0.5, 0.25])])
        assert "s1" in out and "0.500" in out

    def test_seconds_formatting(self):
        assert seconds(123.4) == "123 s"
        assert seconds(1.5) == "1.50 s"
        assert seconds(0.0015).endswith("ms")
        assert seconds(1e-5).endswith("us")
