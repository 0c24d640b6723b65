"""tools/check_bench.py: the perf-regression gate must pass honest runs
and demonstrably fail on injected regressions."""

import importlib.util
import json
import pathlib

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_bench",
    pathlib.Path(__file__).resolve().parent.parent / "tools"
    / "check_bench.py")
check_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_bench)


BASELINE = {
    "results": [
        {
            "case": "flash-crowd",
            "code": "tornado-b",
            "receivers": 20000,
            "num_blocks": 64,
            "completion_rate": 1.0,
            "overhead_p50": 0.065,
            "overhead_p99": 0.175,
            "receivers_per_second": 14000.0,
            "seconds": 1.4,
        },
        {
            "case": "spray",
            "sender_pps": 120000,
            "packets": 4000,
        },
    ]
}


def write_pair(tmp_path, current_mutation=None):
    """Baseline and (optionally mutated) current dirs for main()."""
    base_dir = tmp_path / "baseline"
    cur_dir = tmp_path / "current"
    base_dir.mkdir()
    cur_dir.mkdir()
    (base_dir / "BENCH_x.json").write_text(json.dumps(BASELINE))
    current = json.loads(json.dumps(BASELINE))
    if current_mutation is not None:
        current_mutation(current)
    (cur_dir / "BENCH_x.json").write_text(json.dumps(current))
    return ["--baseline-dir", str(base_dir), "--current-dir", str(cur_dir)]


class TestMetricRules:
    def test_config_drift_fails(self):
        assert check_bench.compare_metric("num_blocks", 64, 32) is not None
        assert check_bench.compare_metric("code", "tornado-b", "lt") \
            is not None
        assert check_bench.compare_metric("num_blocks", 64, 64) is None

    def test_overhead_gates_worse_direction_only(self):
        assert check_bench.compare_metric("overhead_p99", 0.10, 0.30) \
            is not None
        assert check_bench.compare_metric("overhead_p99", 0.10, 0.12) is None
        # improvement never fails
        assert check_bench.compare_metric("overhead_p99", 0.10, 0.01) is None

    def test_completion_rate_gates_drops(self):
        assert check_bench.compare_metric("completion_rate", 1.0, 0.9) \
            is not None
        assert check_bench.compare_metric("completion_rate", 1.0, 0.99) \
            is None

    def test_timing_is_reported_never_gated(self):
        # absolute single-shot timings from another machine: no verdict
        assert check_bench.compare_metric("seconds", 1.0, 10.0) is None
        assert check_bench.compare_metric("elapsed_ms", 1.0, 10.0) is None
        assert check_bench.compare_metric("receivers_per_second",
                                          10000.0, 1000.0) is None
        assert check_bench.compare_metric("decode_MBps", 100.0, 10.0) is None
        assert check_bench.classify("seconds")[0] == "report"
        assert check_bench.classify("packets_per_sec")[0] == "report"
        # same-process ratios keep gating
        for ratio in ("scan_speedup", "decode_vs_xor", "ingest_vs_xor"):
            assert check_bench.compare_metric(ratio, 4.0, 2.5) is None
            assert check_bench.compare_metric(ratio, 4.0, 1.5) is not None

    def test_module_is_configuration(self):
        assert check_bench.compare_metric(
            "module", "bench_decode_ingest", "bench_transfer_blocks") \
            is not None

    def test_non_numeric_current_fails(self):
        assert check_bench.compare_metric("seconds", 1.0, "fast") \
            is not None

    def test_batched_ingest_ratio_has_absolute_floor(self):
        floor = check_bench.BATCHED_INGEST_FLOOR
        # Below the floor fails even when it beats the baseline.
        assert check_bench.compare_metric(
            "batched_ingest_vs_xor", 0.8 * floor, 0.9 * floor) is not None
        assert check_bench.compare_metric(
            "batched_ingest_vs_xor", 2 * floor, 1.1 * floor) is None
        # The relative factor still guards collapse above the floor.
        assert check_bench.compare_metric(
            "batched_ingest_vs_xor", 6 * floor, 2 * floor) is not None


class TestCompare:
    def test_identical_passes(self, tmp_path, capsys):
        assert check_bench.main(write_pair(tmp_path)) == 0
        assert "pass the perf gate" in capsys.readouterr().out

    def test_injected_overhead_regression_fails(self, tmp_path, capsys):
        def worsen(payload):
            payload["results"][0]["overhead_p99"] = 0.5

        assert check_bench.main(write_pair(tmp_path, worsen)) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "overhead_p99" in out

    def test_ten_times_slower_timing_passes_with_a_report_line(
            self, tmp_path, capsys):
        def slower(payload):
            payload["results"][0]["seconds"] = 14.0
            payload["results"][0]["receivers_per_second"] = 1400.0

        assert check_bench.main(write_pair(tmp_path, slower)) == 0
        out = capsys.readouterr().out
        assert "report: BENCH_x.json [flash-crowd] seconds: 14.0" in out
        assert "receivers_per_second: 1400.0 (baseline 14000.0)" in out
        assert "REGRESSION" not in out

    def test_ratio_collapse_still_fails(self, tmp_path, capsys):
        base_dir = tmp_path / "baseline"
        cur_dir = tmp_path / "current"
        base_dir.mkdir()
        cur_dir.mkdir()
        baseline = json.loads(json.dumps(BASELINE))
        baseline["results"][1]["decode_vs_xor"] = 0.04
        current = json.loads(json.dumps(baseline))
        current["results"][1]["decode_vs_xor"] = 0.01
        (base_dir / "BENCH_x.json").write_text(json.dumps(baseline))
        (cur_dir / "BENCH_x.json").write_text(json.dumps(current))
        assert check_bench.main(["--baseline-dir", str(base_dir),
                                 "--current-dir", str(cur_dir)]) == 1
        assert "decode_vs_xor" in capsys.readouterr().out

    def test_timing_wobble_passes(self, tmp_path):
        def wobble(payload):
            payload["results"][0]["seconds"] = 2.8
            payload["results"][0]["receivers_per_second"] = 5000.0

        assert check_bench.main(write_pair(tmp_path, wobble)) == 0

    def test_missing_case_fails(self, tmp_path, capsys):
        def drop(payload):
            payload["results"] = payload["results"][:1]

        assert check_bench.main(write_pair(tmp_path, drop)) == 1
        assert "case missing" in capsys.readouterr().out

    def test_missing_metric_fails(self, tmp_path, capsys):
        def drop(payload):
            del payload["results"][0]["overhead_p50"]

        assert check_bench.main(write_pair(tmp_path, drop)) == 1
        assert "metric missing" in capsys.readouterr().out

    def test_new_case_and_metric_pass_with_note(self, tmp_path, capsys):
        def extend(payload):
            payload["results"][0]["overhead_p999"] = 0.4
            payload["results"].append({"case": "brand-new", "seconds": 1.0})

        assert check_bench.main(write_pair(tmp_path, extend)) == 0
        out = capsys.readouterr().out
        assert "new metric" in out and "new case" in out

    def test_config_drift_fails_gate(self, tmp_path, capsys):
        def drift(payload):
            payload["results"][0]["receivers"] = 10000

        assert check_bench.main(write_pair(tmp_path, drift)) == 1
        assert "configuration drift" in capsys.readouterr().out

    def test_no_summaries_errors(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(SystemExit):
            check_bench.main(["--baseline-dir", str(tmp_path),
                              "--current-dir", str(tmp_path / "empty")])


def swarm_payload(raptor_p99=0.25, lt_p90=0.33):
    return {"results": [
        {"case": "mobile-traces", "overhead_p90": lt_p90},
        {"case": "raptor-traces", "overhead_p99": raptor_p99},
    ]}


def ingest_rows(lt_b1=30.0, tornado_b1=20.0, tornado_k256=24.0,
                window_b16=70.0):
    """Rows the batch-size rules of ``BENCH_transfer.json`` read (the
    b256 rates are 60 and 40, so the defaults sit exactly at 0.5), then
    the two sides of the Tornado-vs-RS decode ratio at k = 256
    (``tornado_k256`` MB/s against RS at 4: the default sits exactly at
    6.0), then the record window over 16 blocks against one block
    (``window_b16`` against 100: the default sits exactly at 0.7)."""
    return [
        {"case": "ingest-lt-k128-b1", "decode_MBps": lt_b1},
        {"case": "ingest-lt-k128-b256", "decode_MBps": 60.0},
        {"case": "ingest-tornado-b-k256-b1", "decode_MBps": tornado_b1},
        {"case": "ingest-tornado-b-k256-b256", "decode_MBps": 40.0},
        {"case": "raw-tornado-b-k256", "decode_MBps": tornado_k256},
        {"case": "raw-rs-k256", "decode_MBps": 4.0},
        {"case": "window-lt-k256-b1", "encode_MBps": 100.0},
        {"case": "window-lt-k256-b16", "encode_MBps": window_b16},
    ]


#: raw LT / Raptor rows that satisfy every rule reading them, for tests
#: about the other rules of ``BENCH_transfer.json``.
RAW_LT_RAPTOR = [
    {"case": "raw-lt-k128", "decode_MBps": 20.0, "encode_MBps": 100.0},
    {"case": "raw-raptor-k128", "decode_MBps": 10.0, "encode_MBps": 80.0},
]


class TestCrossCase:
    def test_holding_claim_passes(self):
        assert check_bench.check_cross_cases(
            "BENCH_swarm.json", swarm_payload()) == []

    def test_raptor_p99_above_lt_p90_fails(self):
        regressions = check_bench.check_cross_cases(
            "BENCH_swarm.json", swarm_payload(raptor_p99=0.34))
        assert len(regressions) == 1
        assert "undercut the LT p90" in str(regressions[0])
        assert "raptor-traces" in str(regressions[0])

    def test_rules_only_fire_for_their_file(self):
        # The same payload under another name carries no raptor claim.
        assert check_bench.check_cross_cases(
            "BENCH_other.json", swarm_payload(raptor_p99=0.9)) == []

    def test_missing_case_or_metric_fails(self):
        gone = {"results": [{"case": "mobile-traces", "overhead_p90": 0.3}]}
        regressions = check_bench.check_cross_cases(
            "BENCH_swarm.json", gone)
        assert len(regressions) == 1
        assert "cross-case rule needs this metric" in str(regressions[0])

        unmetric = swarm_payload()
        del unmetric["results"][0]["overhead_p90"]
        assert len(check_bench.check_cross_cases(
            "BENCH_swarm.json", unmetric)) == 1

    def test_decode_throughput_ratio_fails_on_collapse(self):
        payload = {"results": [
            {"case": "raw-lt-k128", "decode_MBps": 20.0,
             "encode_MBps": 100.0},
            {"case": "raw-raptor-k128", "decode_MBps": 1.0,
             "encode_MBps": 80.0},
        ] + ingest_rows()}
        regressions = check_bench.check_cross_cases(
            "BENCH_transfer.json", payload)
        assert len(regressions) == 1
        assert "LT-class" in str(regressions[0])

    def test_raptor_encode_ratio_fails_on_collapse(self):
        payload = {"results": [
            {"case": "raw-lt-k128", "decode_MBps": 20.0,
             "encode_MBps": 100.0},
            {"case": "raw-raptor-k128", "decode_MBps": 10.0,
             "encode_MBps": 30.0},
        ] + ingest_rows()}
        regressions = check_bench.check_cross_cases(
            "BENCH_transfer.json", payload)
        assert len(regressions) == 1
        assert "LT/2" in str(regressions[0])

    def test_batch_size_one_holds_half_the_batched_rate(self):
        def check(rows):
            return check_bench.check_cross_cases(
                "BENCH_transfer.json", {"results": RAW_LT_RAPTOR + rows})

        assert check(ingest_rows()) == []          # exactly 0.5 passes
        for rows, family in ((ingest_rows(lt_b1=29.4), "LT"),
                             (ingest_rows(tornado_b1=19.6), "Tornado")):
            regressions = check(rows)              # 0.49 fails
            assert len(regressions) == 1
            assert f"{family} ingest one" in str(regressions[0])
        for gone in range(4):                      # a missing row fails
            rows = ingest_rows()
            del rows[gone]
            regressions = check(rows)
            assert len(regressions) == 1
            assert "cross-case rule needs this metric" in str(regressions[0])

    def test_tornado_holds_its_margin_over_rs_at_k256(self):
        def check(rows):
            return check_bench.check_cross_cases(
                "BENCH_transfer.json", {"results": RAW_LT_RAPTOR + rows})

        assert check(ingest_rows()) == []          # at the line passes
        regressions = check(ingest_rows(tornado_k256=23.9))
        assert len(regressions) == 1               # just under fails
        assert "margin over Reed-Solomon" in str(regressions[0])
        for gone in (4, 5):                        # a missing row fails
            rows = ingest_rows()
            del rows[gone]
            regressions = check(rows)
            assert len(regressions) == 1
            assert "cross-case rule needs this metric" in str(regressions[0])

    def test_record_window_holds_across_blocks(self):
        def check(rows):
            return check_bench.check_cross_cases(
                "BENCH_transfer.json", {"results": RAW_LT_RAPTOR + rows})

        assert check(ingest_rows()) == []          # at the line passes
        regressions = check(ingest_rows(window_b16=69.9))
        assert len(regressions) == 1               # just under fails
        assert "one synthesis batch per block" in str(regressions[0])
        for gone in (6, 7):                        # a missing row fails
            rows = ingest_rows()
            del rows[gone]
            regressions = check(rows)
            assert len(regressions) == 1
            assert "cross-case rule needs this metric" in str(regressions[0])

    def test_closed_form_inverse_speedup_floor(self):
        def payload(**row):
            return {"results": [
                {"case": "ingest-lt-k128-b1", "ingest_vs_xor": 0.04},
                {"case": "cap-inverse-x64", **row}]}

        assert check_bench.check_case_floors(
            "BENCH_transfer.json", payload(closed_form_speedup=3.0)) == []
        regressions = check_bench.check_case_floors(
            "BENCH_transfer.json", payload(closed_form_speedup=2.9))
        assert len(regressions) == 1
        assert "fell back towards elimination" in str(regressions[0])
        # A row that lost the metric, or no row at all, fails too.
        assert len(check_bench.check_case_floors(
            "BENCH_transfer.json", payload())) == 1
        gone = payload(closed_form_speedup=9.0)
        del gone["results"][1]
        assert len(check_bench.check_case_floors(
            "BENCH_transfer.json", gone)) == 1

    def test_case_floor_holds_and_fails(self):
        def transfer_payload(b1_ratio, closed_form):
            return {"results": [
                {"case": "ingest-lt-k128-b1", "ingest_vs_xor": b1_ratio},
                {"case": "cap-inverse-x64",
                 "closed_form_speedup": closed_form},
            ]}

        floor = check_bench.SINGLE_INGEST_FLOOR
        assert check_bench.check_case_floors(
            "BENCH_transfer.json", transfer_payload(floor, 12.0)) == []
        regressions = check_bench.check_case_floors(
            "BENCH_transfer.json", transfer_payload(0.99 * floor, 12.0))
        assert len(regressions) == 1
        assert "batch-size-1" in str(regressions[0])
        regressions = check_bench.check_case_floors(
            "BENCH_transfer.json", transfer_payload(2 * floor, 2.0))
        assert len(regressions) == 1
        assert "fell back towards elimination" in str(regressions[0])
        # Floors are file-scoped, like the cross-case rules.
        assert check_bench.check_case_floors(
            "BENCH_other.json", transfer_payload(0.1, 0.1)) == []

    def test_raptor_scan_speedup_floor(self):
        def raptor_payload(scan_speedup):
            return {"results": [{"case": "raptor-geometry-build-k256",
                                 "scan_speedup": scan_speedup},
                                {"case": "raptor-structural-decode-k256",
                                 "rank_speedup": 2.2}]}

        assert check_bench.check_case_floors(
            "BENCH_raptor.json", raptor_payload(3.0)) == []
        regressions = check_bench.check_case_floors(
            "BENCH_raptor.json", raptor_payload(2.9))
        assert len(regressions) == 1
        assert "one droplet at a time" in str(regressions[0])
        # A build row that lost the metric fails too.
        payload = raptor_payload(3.0)
        del payload["results"][0]["scan_speedup"]
        assert len(check_bench.check_case_floors(
            "BENCH_raptor.json", payload)) == 1

    def test_raptor_rank_speedup_floor(self):
        payload = {"results": [{"case": "raptor-geometry-build-k256",
                                "scan_speedup": 3.0},
                               {"case": "raptor-structural-decode-k256",
                                "rank_speedup": 2.1}]}
        regressions = check_bench.check_case_floors(
            "BENCH_raptor.json", payload)
        assert len(regressions) == 1
        assert "fell back towards the engine" in str(regressions[0])

    def test_case_floor_missing_metric_fails(self):
        payload = {"results": [{"case": "cap-inverse-x64", "seconds": 0.02}]}
        regressions = check_bench.check_case_floors(
            "BENCH_transfer.json", payload)
        assert len(regressions) == 2
        assert any("case floor needs this metric" in str(r)
                   for r in regressions)

    def test_cross_case_violation_fails_main(self, tmp_path, capsys):
        base_dir = tmp_path / "baseline"
        cur_dir = tmp_path / "current"
        base_dir.mkdir()
        cur_dir.mkdir()
        (base_dir / "BENCH_swarm.json").write_text(
            json.dumps(swarm_payload(raptor_p99=0.34)))
        (cur_dir / "BENCH_swarm.json").write_text(
            json.dumps(swarm_payload(raptor_p99=0.34)))
        # Identical baseline and current — only the cross-case claim
        # itself can (and must) fail the gate.
        assert check_bench.main(
            ["--baseline-dir", str(base_dir),
             "--current-dir", str(cur_dir)]) == 1
        assert "undercut the LT p90" in capsys.readouterr().out


class TestAgainstCommittedBaselines:
    def test_committed_baselines_self_compare(self, capsys):
        """Every committed BENCH_*.json passes against itself via the
        directory path (sanity for the schemas the gate expects)."""
        root = check_bench.REPO_ROOT
        if not list(root.glob("BENCH_*.json")):
            pytest.skip("no committed benchmark summaries")
        assert check_bench.main(["--baseline-dir", str(root),
                                 "--current-dir", str(root)]) == 0


def _load_results_module(name):
    """A private instance of ``benchmarks/_results.py`` — one per
    simulated bench session, with its own recorder registry."""
    spec = importlib.util.spec_from_file_location(
        name, pathlib.Path(__file__).resolve().parent.parent
        / "benchmarks" / "_results.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cases(path):
    return [row["case"] for row in json.loads(path.read_text())["results"]]


class TestBenchRecorderMerge:
    def test_second_session_keeps_the_other_modules_cases(self, tmp_path):
        """A standalone ``bench-ingest`` must not strip the transfer rows
        another module published into the same summary file."""
        target = str(tmp_path / "BENCH_t.json")
        first = _load_results_module("_results_session_one")
        transfer = first.BenchRecorder(target, "bench_transfer")
        transfer.record("transfer-lt", goodput=20.0)
        transfer.flush()
        ingest = first.BenchRecorder(target, "bench_ingest")
        ingest.record("ingest-b256", droplets_per_second=1000)
        ingest.flush()
        second = _load_results_module("_results_session_two").BenchRecorder(
            target, "bench_ingest")
        second.record("ingest-b256", droplets_per_second=1500)
        second.record("ingest-b1", droplets_per_second=90)
        second.flush()
        assert json.loads(pathlib.Path(target).read_text()) == {"results": [
            {"case": "ingest-b1", "module": "bench_ingest",
             "droplets_per_second": 90},
            {"case": "ingest-b256", "module": "bench_ingest",
             "droplets_per_second": 1500},
            {"case": "transfer-lt", "module": "bench_transfer",
             "goodput": 20.0},
        ]}

    def test_a_full_run_drops_the_cases_its_module_stopped_recording(
            self, tmp_path):
        """A case no bench records any more leaves the file (and the
        gate) on the next full run of the module that recorded it."""
        target = tmp_path / "BENCH_t.json"
        old = _load_results_module("_results_session_old")
        adaptive = old.BenchRecorder(str(target), "bench_adaptive")
        adaptive.record("adaptive-gilbert-reference", overhead_p99=0.78)
        adaptive.record("adaptive-gilbert-vectorized", overhead_p99=0.78)
        adaptive.flush()
        swarm = old.BenchRecorder(str(target), "bench_swarm")
        swarm.record("flash-crowd", overhead_p99=0.2)
        swarm.flush()
        new = _load_results_module("_results_session_new").BenchRecorder(
            str(target), "bench_adaptive")
        new.record("adaptive-gilbert", overhead_p99=0.78)
        new.flush()
        assert _cases(target) == ["adaptive-gilbert", "flash-crowd"]

    def test_a_partial_run_keeps_the_cases_it_did_not_reach(self, tmp_path):
        target = tmp_path / "BENCH_t.json"
        first = _load_results_module("_results_session_all").BenchRecorder(
            str(target), "bench_ingest")
        first.record("ingest-b1", droplets_per_second=90)
        first.record("ingest-b256", droplets_per_second=1000)
        first.flush()
        narrowed = _load_results_module(
            "_results_session_k").BenchRecorder(str(target), "bench_ingest")
        narrowed.record("ingest-b1", droplets_per_second=95)
        narrowed.flush(ran_in_full=False)
        assert _cases(target) == ["ingest-b1", "ingest-b256"]

    def test_rows_that_name_no_module_go_with_any_full_run(self, tmp_path):
        target = tmp_path / "BENCH_t.json"
        target.write_text(json.dumps({"results": [
            {"case": "old-row", "overhead_p99": 0.5}]}))
        recorder = _load_results_module(
            "_results_session_legacy").BenchRecorder(str(target), "bench_a")
        recorder.record("new-row", overhead_p99=0.4)
        recorder.flush()
        assert _cases(target) == ["new-row"]

    def test_flush_all_runs_named_modules_as_partial(self, tmp_path,
                                                     monkeypatch):
        target = tmp_path / "BENCH_t.json"
        target.write_text(json.dumps({"results": [
            {"case": "a-stale", "module": "bench_a"},
            {"case": "b-stale", "module": "bench_b"}]}))
        results = _load_results_module("_results_session_flush_all")
        monkeypatch.setattr(results, "REPO_ROOT", tmp_path)
        results.BenchRecorder(str(target), "benchmarks.bench_a").record(
            "a-fresh", seconds=1.0)
        results.BenchRecorder(str(target), "bench_b").record(
            "b-fresh", seconds=1.0)
        results.flush_all(ran_in_part=["bench_a"])
        assert _cases(target) == ["a-fresh", "a-stale", "b-fresh"]
        assert (tmp_path / results.RUNINFO_NAME).exists()

    def test_recorder_without_rows_leaves_the_file_alone(self, tmp_path):
        target = tmp_path / "BENCH_t.json"
        target.write_text("untouched")
        _load_results_module("_results_session_idle").BenchRecorder(
            str(target), "bench_idle").flush()
        assert target.read_text() == "untouched"

    @pytest.mark.parametrize("stored", ["not json", "{}", '{"results": 3}',
                                        '{"results": [{"metric": 1}]}'])
    def test_unreadable_summary_is_overwritten(self, tmp_path, stored):
        target = tmp_path / "BENCH_t.json"
        target.write_text(stored)
        recorder = _load_results_module(
            "_results_session_bad").BenchRecorder(str(target), "bench_bad")
        recorder.record("ingest-b1", droplets_per_second=90)
        recorder.flush()
        assert json.loads(target.read_text()) == {"results": [
            {"case": "ingest-b1", "module": "bench_bad",
             "droplets_per_second": 90}]}


_MEMORY_SPEC = importlib.util.spec_from_file_location(
    "bench_memory",
    pathlib.Path(__file__).resolve().parent.parent / "tools"
    / "bench_memory.py")
bench_memory = importlib.util.module_from_spec(_MEMORY_SPEC)
_MEMORY_SPEC.loader.exec_module(bench_memory)


class TestMemoryGate:
    STRETCHES = {"tornado-b": 2.0, "lt": float("inf")}

    def test_a_fixed_rate_slope_over_stretch_plus_two_fails(self):
        rows = {"tornado-b": [206.0, 688.0], "lt": [65.0, 120.0]}
        failures = bench_memory.verdicts(rows, [8, 32], self.STRETCHES)
        assert len(failures) == 1 and failures[0].startswith("tornado-b")

    def test_rateless_slopes_are_reported_not_gated(self):
        rows = {"tornado-b": [79.0, 164.0], "lt": [65.0, 900.0]}
        assert bench_memory.verdicts(rows, [8, 32], self.STRETCHES) == []

    def test_a_receiver_slope_over_the_bound_fails_any_family(self):
        rows = {"tornado-b": [87.0, 206.0], "lt": [70.0, 200.0]}
        failures = bench_memory.receiver_verdicts(rows, [8, 32])
        assert len(failures) == 1 and failures[0].startswith("lt receiver")
        assert bench_memory.receiver_verdicts(
            {"lt": [70.0, 150.0]}, [8, 32]) == []
